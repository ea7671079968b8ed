package deform

import (
	"fmt"

	"surfdeformer/internal/code"
	"surfdeformer/internal/gf2"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/pauli"
)

// obsSpecBuilds counts Build calls: every spec compiled in the process.
var obsSpecBuilds = obs.Default().Counter("deform.spec_builds")

// Build compiles the spec into a concrete code.
//
// The algebraic procedure:
//
//  1. Restrict every check of the bounding rectangle to the surviving data
//     set. Checks whose syndrome qubit was removed are replaced by weight-1
//     direct measurement candidates on their surviving support (fig. 6b).
//  2. Apply boundary fixes: freezing the single-qubit operator of type T on
//     a removed site merges the broken opposite-type checks that contained
//     it into a single product candidate (fig. 6c / fig. 8).
//  3. Partition: a candidate that commutes with every other candidate is a
//     stabilizer; the rest are gauge operators (this reproduces the paper's
//     S2G demotions).
//  4. Recover super-stabilizers: products of gauge candidates lying in the
//     center of the measured group are found as the nullspace of the
//     anti-commutation Gram matrix and recorded as super-stabilizers with
//     explicit member lists (fig. 6a's s1s2/g1g2, fig. 6b's octagon).
//  5. Re-derive minimum-weight logical representatives from the deformed
//     stabilizer structure and repair them against the gauge operators.
//
// The result is validated structurally; callers requiring the full
// (expensive) invariant check should call Validate on the result. Every
// call compiles afresh and returns a new code the caller owns; callers that
// need only the distances use Distances.
func (s *Spec) Build() (*code.Code, error) {
	obsSpecBuilds.Inc()
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
		origSupp []lattice.Coord // support of the source check before restriction
		fromFix  bool            // merged remnant created by a boundary fix
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
			// SyndromeQRM: the check is inferred from weight-1 direct
			// measurements of the surviving support qubits.
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

	// Boundary fixes (PatchQRM): freezing the single-qubit operator of type
	// T on q demotes the opposite-type checks containing q and merges them
	// into one product candidate (the paper's G2G folding inside G2S). The
	// merged remnant is kept only if it commutes with the rest of the code;
	// otherwise it is the operator G2S sacrifices, and it is dropped below.
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
			if cd.typ == brokenType && !cd.direct && containsCoord(cd.origSupp, q) {
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

	// Partition into stabilizers and gauges; fix-merged remnants that still
	// anti-commute with the surviving code are sacrificed (the G2S step of
	// PatchQRM) and the partition repeats until stable.
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

	// Prune data qubits covered by no candidate: they are disconnected from
	// the code and would inflate k. Weight-1 plain stabilizers freeze their
	// qubit: the frozen qubit leaves the code and the check disappears with
	// it (the cascade of a boundary cut consuming an orphaned site).
	for {
		covered := map[lattice.Coord]bool{}
		for i, cd := range cands {
			if !isGauge[i] && !cd.direct && cd.op.Weight() == 1 {
				continue // frozen site: treated as uncovered below
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
		// Re-restrict candidates and drop the ones that vanished; the
		// partition flags stay aligned by rebuilding both slices together.
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

	// Assemble the code object.
	var dataList []lattice.Coord
	for q := range dataSet {
		dataList = append(dataList, q)
	}
	lattice.SortCoords(dataList)
	usedSyn := map[lattice.Coord]bool{}
	for i, cd := range cands {
		if cd.direct {
			continue
		}
		_ = i
		usedSyn[cd.ancilla] = true
	}
	var synList []lattice.Coord
	for q := range usedSyn {
		synList = append(synList, q)
	}
	lattice.SortCoords(synList)
	c := code.New(dataList, synList)

	var gaugeIdx []int // candidate index per gauge, aligned with gaugeIDs
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

	// Recover super-stabilizers from the gauge Gram nullspace.
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
		// Incremental independence filter over the symplectic rows of the
		// current stabilizer list.
		qIdx := make(map[lattice.Coord]int, len(dataList))
		for i, q := range dataList {
			qIdx[q] = i
		}
		nq := len(dataList)
		reducer := newIncrementalReducer(2 * nq)
		for _, st := range c.Stabs() {
			v, err := symplecticVec(st.Op, qIdx, nq)
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
			v, err := symplecticVec(prod, qIdx, nq)
			if err != nil {
				return nil, err
			}
			if !reducer.add(v) {
				continue // dependent on existing stabilizers
			}
			c.AddSuperStab(prod, members)
		}
	}

	// Provisional logicals from the rectangle, then refresh from the actual
	// deformed structure.
	c.SetLogicalX(pauli.X(rect.LogicalX...).RestrictedTo(keep))
	c.SetLogicalZ(pauli.Z(rect.LogicalZ...).RestrictedTo(keep))
	if err := c.RefreshLogicals(); err != nil {
		return nil, fmt.Errorf("deform: %w", err)
	}
	if _, k, _, err := c.Params(); err != nil {
		return nil, fmt.Errorf("deform: %w", err)
	} else if k != 1 {
		return nil, fmt.Errorf("deform: deformed code encodes k=%d logical qubits; defect pattern breaks the patch", k)
	}
	return c, nil
}

func containsCoord(cs []lattice.Coord, q lattice.Coord) bool {
	for _, c := range cs {
		if c == q {
			return true
		}
	}
	return false
}

// symplecticVec encodes op as [x-part | z-part] over the given qubit index.
func symplecticVec(op pauli.Op, idx map[lattice.Coord]int, n int) (gf2.Vec, error) {
	v := gf2.NewVec(2 * n)
	for _, q := range op.XSupport() {
		i, ok := idx[q]
		if !ok {
			return gf2.Vec{}, fmt.Errorf("deform: operator acts on unknown qubit %v", q)
		}
		v.Set(i, true)
	}
	for _, q := range op.ZSupport() {
		i, ok := idx[q]
		if !ok {
			return gf2.Vec{}, fmt.Errorf("deform: operator acts on unknown qubit %v", q)
		}
		v.Set(n+i, true)
	}
	return v, nil
}

// incrementalReducer maintains a row-reduced GF(2) basis supporting
// independence-tested insertion.
type incrementalReducer struct {
	cols  int
	rows  []gf2.Vec // each with a unique pivot column
	pivot []int
}

func newIncrementalReducer(cols int) *incrementalReducer {
	return &incrementalReducer{cols: cols}
}

// add reduces v against the basis; if a non-zero remainder survives it is
// added to the basis and add reports true. A zero remainder (dependent
// vector) reports false.
func (r *incrementalReducer) add(v gf2.Vec) bool {
	w := v.Clone()
	for i, row := range r.rows {
		if w.Get(r.pivot[i]) {
			w.Xor(row)
		}
	}
	if w.IsZero() {
		return false
	}
	p := w.Indices()[0]
	r.rows = append(r.rows, w)
	r.pivot = append(r.pivot, p)
	return true
}
