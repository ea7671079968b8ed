package deform

// This file keeps the compile that Spec.Build replaced as the oracle
// refBuild: every step re-derives its inputs through coordinate maps, the
// logical refresh walks the chain graph once per logical and the distances
// walk it again, AlgebraicLogical tests each nullspace vector by two ranks,
// and k comes from Params' fresh rank and Gram matrices. It is that code
// verbatim, less the compile counter, with the code package's refresh,
// chain graph, BFS, AlgebraicLogical, RepairLogical and Params rewritten
// over code's exported accessors and SetLogicalX/SetLogicalZ.

import (
	"fmt"

	"surfdeformer/internal/code"
	"surfdeformer/internal/gf2"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/pauli"
)

// refBuild compiles the spec into a concrete code.
func refBuild(s *Spec) (*code.Code, error) {
	rect := s.Rect()
	dataSet := make(map[lattice.Coord]bool, len(rect.Data))
	for _, q := range rect.Data {
		if !s.RemovedData[q] {
			dataSet[q] = true
		}
	}
	if len(dataSet) == 0 {
		return nil, fmt.Errorf("deform: all data qubits removed")
	}

	type cand struct {
		op       pauli.Op
		typ      lattice.CheckType
		ancilla  lattice.Coord
		direct   bool
		origSupp []lattice.Coord
		fromFix  bool
	}
	var cands []cand

	keep := func(q lattice.Coord) bool { return dataSet[q] }
	for _, ch := range rect.Checks {
		var full pauli.Op
		if ch.Type == lattice.XCheck {
			full = pauli.X(ch.Support...)
		} else {
			full = pauli.Z(ch.Support...)
		}
		if s.RemovedSyndrome[ch.Center] {
			for _, q := range ch.Support {
				if !dataSet[q] {
					continue
				}
				var op pauli.Op
				if ch.Type == lattice.XCheck {
					op = pauli.X(q)
				} else {
					op = pauli.Z(q)
				}
				cands = append(cands, cand{op: op, typ: ch.Type, ancilla: q, direct: true, origSupp: ch.Support})
			}
			continue
		}
		op := full.RestrictedTo(keep)
		if op.IsIdentity() {
			continue
		}
		cands = append(cands, cand{op: op, typ: ch.Type, ancilla: ch.Center, origSupp: ch.Support})
	}

	fixCoords := make([]lattice.Coord, 0, len(s.Fixes))
	for q := range s.Fixes {
		fixCoords = append(fixCoords, q)
	}
	lattice.SortCoords(fixCoords)
	for _, q := range fixCoords {
		brokenType := s.Fixes[q].Opposite()
		var merged pauli.Op
		var mergedSupp []lattice.Coord
		anc := lattice.Coord{}
		out := cands[:0]
		found := false
		for _, cd := range cands {
			if cd.typ == brokenType && !cd.direct && refContainsCoord(cd.origSupp, q) {
				if !found {
					anc = cd.ancilla
					found = true
				}
				merged = pauli.Mul(merged, cd.op)
				mergedSupp = append(mergedSupp, cd.origSupp...)
				continue
			}
			out = append(out, cd)
		}
		cands = out
		if found && !merged.IsIdentity() {
			cands = append(cands, cand{op: merged, typ: brokenType, ancilla: anc, origSupp: mergedSupp, fromFix: true})
		}
	}

	var isGauge []bool
	for {
		isGauge = make([]bool, len(cands))
		for i := range cands {
			for j := i + 1; j < len(cands); j++ {
				if !cands[i].op.Commutes(cands[j].op) {
					isGauge[i] = true
					isGauge[j] = true
				}
			}
		}
		dropped := false
		out := cands[:0]
		for i, cd := range cands {
			if cd.fromFix && isGauge[i] {
				dropped = true
				continue
			}
			out = append(out, cd)
		}
		cands = out
		if !dropped {
			break
		}
	}

	for {
		covered := map[lattice.Coord]bool{}
		for i, cd := range cands {
			if !isGauge[i] && !cd.direct && cd.op.Weight() == 1 {
				continue
			}
			for _, q := range cd.op.Support() {
				covered[q] = true
			}
		}
		changed := false
		for q := range dataSet {
			if !covered[q] {
				delete(dataSet, q)
				changed = true
			}
		}
		if !changed {
			break
		}
		newCands := cands[:0]
		var newIsGauge []bool
		for i := range cands {
			op := cands[i].op.RestrictedTo(keep)
			if op.IsIdentity() {
				continue
			}
			cd := cands[i]
			cd.op = op
			newCands = append(newCands, cd)
			newIsGauge = append(newIsGauge, isGauge[i])
		}
		cands = newCands
		isGauge = newIsGauge
	}

	var dataList []lattice.Coord
	for q := range dataSet {
		dataList = append(dataList, q)
	}
	lattice.SortCoords(dataList)
	usedSyn := map[lattice.Coord]bool{}
	for _, cd := range cands {
		if cd.direct {
			continue
		}
		usedSyn[cd.ancilla] = true
	}
	var synList []lattice.Coord
	for q := range usedSyn {
		synList = append(synList, q)
	}
	lattice.SortCoords(synList)
	c := code.New(dataList, synList)

	var gaugeIdx []int
	var gaugeIDs []int
	for i, cd := range cands {
		if isGauge[i] {
			id := c.AddGauge(cd.op, cd.ancilla, cd.direct)
			gaugeIdx = append(gaugeIdx, i)
			gaugeIDs = append(gaugeIDs, id)
		} else if cd.direct {
			c.AddDirectStab(cd.op)
		} else {
			c.AddStab(cd.op, cd.ancilla)
		}
	}

	if len(gaugeIdx) > 0 {
		m := len(gaugeIdx)
		gram := gf2.NewMatrix(m, m)
		for a := 0; a < m; a++ {
			for b := a + 1; b < m; b++ {
				if !cands[gaugeIdx[a]].op.Commutes(cands[gaugeIdx[b]].op) {
					gram.Set(a, b, true)
					gram.Set(b, a, true)
				}
			}
		}
		qIdx := make(map[lattice.Coord]int, len(dataList))
		for i, q := range dataList {
			qIdx[q] = i
		}
		nq := len(dataList)
		reducer := &refReducer{}
		for _, st := range c.Stabs() {
			v, err := refSymplecticVec(st.Op, qIdx, nq, "deform: operator acts on unknown qubit %v")
			if err != nil {
				return nil, err
			}
			reducer.add(v)
		}
		for _, null := range gram.Nullspace() {
			var prod pauli.Op
			var members []int
			for _, a := range null.Indices() {
				prod = pauli.Mul(prod, cands[gaugeIdx[a]].op)
				members = append(members, gaugeIDs[a])
			}
			if prod.IsIdentity() {
				continue
			}
			v, err := refSymplecticVec(prod, qIdx, nq, "deform: operator acts on unknown qubit %v")
			if err != nil {
				return nil, err
			}
			if !reducer.add(v) {
				continue
			}
			c.AddSuperStab(prod, members)
		}
	}

	c.SetLogicalX(pauli.X(rect.LogicalX...).RestrictedTo(keep))
	c.SetLogicalZ(pauli.Z(rect.LogicalZ...).RestrictedTo(keep))
	if err := refRefreshLogicals(c); err != nil {
		return nil, fmt.Errorf("deform: %w", err)
	}
	if _, k, _, err := refParams(c); err != nil {
		return nil, fmt.Errorf("deform: %w", err)
	} else if k != 1 {
		return nil, fmt.Errorf("deform: deformed code encodes k=%d logical qubits; defect pattern breaks the patch", k)
	}
	return c, nil
}

func refContainsCoord(cs []lattice.Coord, q lattice.Coord) bool {
	for _, c := range cs {
		if c == q {
			return true
		}
	}
	return false
}

// refSymplecticVec encodes op as [x-part | z-part] over the given qubit
// index; errText formats the error for a qubit outside it.
func refSymplecticVec(op pauli.Op, idx map[lattice.Coord]int, n int, errText string) (gf2.Vec, error) {
	v := gf2.NewVec(2 * n)
	for _, q := range op.XSupport() {
		i, ok := idx[q]
		if !ok {
			return gf2.Vec{}, fmt.Errorf(errText, q)
		}
		v.Set(i, true)
	}
	for _, q := range op.ZSupport() {
		i, ok := idx[q]
		if !ok {
			return gf2.Vec{}, fmt.Errorf(errText, q)
		}
		v.Set(n+i, true)
	}
	return v, nil
}

// refReducer maintains a row-reduced GF(2) basis supporting
// independence-tested insertion.
type refReducer struct {
	rows  []gf2.Vec
	pivot []int
}

func (r *refReducer) add(v gf2.Vec) bool {
	w := v.Clone()
	for i, row := range r.rows {
		if w.Get(r.pivot[i]) {
			w.Xor(row)
		}
	}
	idx := w.Indices()
	if len(idx) == 0 {
		return false
	}
	r.rows = append(r.rows, w)
	r.pivot = append(r.pivot, idx[0])
	return true
}

// refParams is code.Params: n, k and l from the rank of every measured
// operator and the rank of their anti-commutation Gram matrix.
func refParams(c *code.Code) (n, k, l int, err error) {
	qs := c.DataQubits()
	idx := make(map[lattice.Coord]int, len(qs))
	for i, q := range qs {
		idx[q] = i
	}
	nq := len(qs)
	var ops []pauli.Op
	for _, s := range c.Stabs() {
		ops = append(ops, s.Op)
	}
	for _, g := range c.Gauges() {
		ops = append(ops, g.Op)
	}
	m := gf2.NewMatrix(0, 2*nq)
	for _, op := range ops {
		v, err := refSymplecticVec(op, idx, nq, "code: operator acts on inactive qubit %v")
		if err != nil {
			return 0, 0, 0, err
		}
		m.AppendRow(v)
	}
	r := m.Rank()
	gram := gf2.NewMatrix(len(ops), len(ops))
	for i := range ops {
		for j := i + 1; j < len(ops); j++ {
			if !ops[i].Commutes(ops[j]) {
				gram.Set(i, j, true)
				gram.Set(j, i, true)
			}
		}
	}
	gr := gram.Rank()
	if gr%2 != 0 {
		return 0, 0, 0, fmt.Errorf("code: Gram matrix rank %d is odd; symplectic structure broken", gr)
	}
	l = gr / 2
	k = nq - r + l
	return nq, k, l, nil
}

// refRefreshLogicals is code.RefreshLogicals: seed a bare logical Z
// algebraically, minimize X against it, then re-minimize Z against the
// minimal X.
func refRefreshLogicals(c *code.Code) error {
	seed, err := refAlgebraicLogical(c, lattice.ZCheck)
	if err != nil {
		return err
	}
	c.SetLogicalZ(seed)
	refresh := func(typ lattice.CheckType) error {
		qubits, err := refShortestLogicalPath(c, typ)
		if err != nil {
			return err
		}
		var rep pauli.Op
		if typ == lattice.ZCheck {
			rep = pauli.Z(qubits...)
		} else {
			rep = pauli.X(qubits...)
		}
		rep, err = refRepairLogical(c, rep)
		if err != nil {
			return fmt.Errorf("code: logical %v: %w", typ, err)
		}
		if typ == lattice.ZCheck {
			c.SetLogicalZ(rep)
		} else {
			c.SetLogicalX(rep)
		}
		return nil
	}
	if err := refresh(lattice.XCheck); err != nil {
		return err
	}
	if err := refresh(lattice.ZCheck); err != nil {
		return err
	}
	if c.LogicalX().Commutes(c.LogicalZ()) {
		return fmt.Errorf("code: refreshed logicals commute; patch topology broken")
	}
	return nil
}

// refRepairLogical is code.RepairLogical: multiply op by the gauge
// combination that solves Gramᵀ·x = pattern.
func refRepairLogical(c *code.Code, op pauli.Op) (pauli.Op, error) {
	gauges := c.Gauges()
	var bad []int
	for i, g := range gauges {
		if !op.Commutes(g.Op) {
			bad = append(bad, i)
		}
	}
	if len(bad) == 0 {
		return op, nil
	}
	n := len(gauges)
	gram := gf2.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !gauges[i].Op.Commutes(gauges[j].Op) {
				gram.Set(i, j, true)
			}
		}
	}
	pattern := gf2.NewVec(n)
	for _, i := range bad {
		pattern.Set(i, true)
	}
	combo, ok := gram.Solve(pattern)
	if !ok {
		return pauli.Op{}, fmt.Errorf("code: operator cannot be repaired into a bare logical")
	}
	out := op
	for i := 0; i < n; i++ {
		if combo.Get(i) {
			out = pauli.Mul(out, gauges[i].Op)
		}
	}
	for _, g := range gauges {
		if !out.Commutes(g.Op) {
			return pauli.Op{}, fmt.Errorf("code: logical repair failed to commute with gauge %d", g.ID)
		}
	}
	return out, nil
}

// refAlgebraicLogical is code.AlgebraicLogical: the first nullspace vector
// of the opposite-type measured operators outside the span of the
// same-type ones.
func refAlgebraicLogical(c *code.Code, logicalType lattice.CheckType) (pauli.Op, error) {
	qubits := c.DataQubits()
	idx := make(map[lattice.Coord]int, len(qubits))
	for i, q := range qubits {
		idx[q] = i
	}
	n := len(qubits)
	supportVec := func(op pauli.Op) gf2.Vec {
		v := gf2.NewVec(n)
		for _, q := range op.Support() {
			if i, ok := idx[q]; ok {
				v.Set(i, true)
			}
		}
		return v
	}
	opposite := gf2.NewMatrix(0, n)
	same := gf2.NewMatrix(0, n)
	collect := func(op pauli.Op) {
		t, ok := op.CSSType()
		if !ok || op.IsIdentity() {
			return
		}
		if t == logicalType {
			same.AppendRow(supportVec(op))
		} else {
			opposite.AppendRow(supportVec(op))
		}
	}
	for _, s := range c.Stabs() {
		collect(s.Op)
	}
	for _, g := range c.Gauges() {
		collect(g.Op)
	}
	for _, v := range opposite.Nullspace() {
		aug := same.Clone()
		aug.AppendRow(v)
		if aug.Rank() == same.Rank() {
			continue
		}
		var coords []lattice.Coord
		for _, i := range v.Indices() {
			coords = append(coords, qubits[i])
		}
		if logicalType == lattice.ZCheck {
			return pauli.Z(coords...), nil
		}
		return pauli.X(coords...), nil
	}
	return pauli.Op{}, fmt.Errorf("code: no %v logical class exists (k = 0?)", logicalType)
}

// refChainEdge is one edge of the chain graph: the data qubit it
// represents, its endpoints and its crossing parity with the opposite bare
// logical.
type refChainEdge struct {
	u, v   int
	qubit  lattice.Coord
	parity bool
}

// refChainGraph is the chain graph for type-T logicals: opposite-type
// generators are vertices (the boundary is vertex nGen), data qubits edges.
func refChainGraph(c *code.Code, logicalType lattice.CheckType) (edges []refChainEdge, nGen int, err error) {
	consType := logicalType.Opposite()
	var gens []pauli.Op
	for _, s := range c.Stabs() {
		t, ok := s.Op.CSSType()
		if ok && t == consType && !s.Op.IsIdentity() {
			gens = append(gens, s.Op)
		}
	}
	genOf := map[lattice.Coord][]int{}
	for gi, g := range gens {
		for _, q := range g.Support() {
			genOf[q] = append(genOf[q], gi)
		}
	}
	nGen = len(gens)
	boundary := nGen
	crossing := c.LogicalX()
	if logicalType == lattice.XCheck {
		crossing = c.LogicalZ()
	}
	for _, q := range c.DataQubits() {
		var op pauli.Op
		if logicalType == lattice.ZCheck {
			op = pauli.Z(q)
		} else {
			op = pauli.X(q)
		}
		parity := !op.Commutes(crossing)
		gs := genOf[q]
		switch len(gs) {
		case 2:
			edges = append(edges, refChainEdge{gs[0], gs[1], q, parity})
		case 1:
			edges = append(edges, refChainEdge{gs[0], boundary, q, parity})
		case 0:
			edges = append(edges, refChainEdge{boundary, boundary, q, parity})
		default:
			return nil, 0, fmt.Errorf("code: qubit %v touched by %d %v-generators; chain graph undefined",
				q, len(gs), consType)
		}
	}
	return edges, nGen, nil
}

// refShortestLogicalPath is the BFS over (vertex, parity) states for the
// shortest odd-parity boundary-to-boundary walk.
func refShortestLogicalPath(c *code.Code, logicalType lattice.CheckType) ([]lattice.Coord, error) {
	edges, nGen, err := refChainGraph(c, logicalType)
	if err != nil {
		return nil, err
	}
	const unreachable = 1 << 30
	boundary := nGen
	adj := make([][]int, nGen+1)
	for i, e := range edges {
		adj[e.u] = append(adj[e.u], i)
		if e.v != e.u {
			adj[e.v] = append(adj[e.v], i)
		}
	}
	type state struct {
		v      int
		parity int
	}
	idx := func(s state) int { return s.v*2 + s.parity }
	dist := make([]int, (nGen+1)*2)
	prevEdge := make([]int, (nGen+1)*2)
	prevState := make([]int, (nGen+1)*2)
	for i := range dist {
		dist[i] = unreachable
		prevEdge[i] = -1
		prevState[i] = -1
	}
	start := state{boundary, 0}
	goal := state{boundary, 1}
	dist[idx(start)] = 0
	queue := []state{start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s == goal {
			break
		}
		for _, ei := range adj[s.v] {
			e := edges[ei]
			to := e.v
			if to == s.v && e.u != e.v {
				to = e.u
			}
			if e.u == e.v {
				to = s.v
			}
			p := s.parity
			if e.parity {
				p ^= 1
			}
			ns := state{to, p}
			if dist[idx(ns)] > dist[idx(s)]+1 {
				dist[idx(ns)] = dist[idx(s)] + 1
				prevEdge[idx(ns)] = ei
				prevState[idx(ns)] = idx(s)
				queue = append(queue, ns)
			}
		}
	}
	if dist[idx(goal)] >= unreachable {
		return nil, fmt.Errorf("code: no %v logical operator exists", logicalType)
	}
	var qubits []lattice.Coord
	for si := idx(goal); prevEdge[si] >= 0; si = prevState[si] {
		qubits = append(qubits, edges[prevEdge[si]].qubit)
	}
	return qubits, nil
}

// refDistance is the distance a fresh chain-graph search gives: the length
// of the shortest logical path, or 1<<30 when none exists.
func refDistance(c *code.Code, logicalType lattice.CheckType) int {
	qubits, err := refShortestLogicalPath(c, logicalType)
	if err != nil {
		return 1 << 30
	}
	return len(qubits)
}
