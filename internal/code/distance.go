package code

import (
	"fmt"
	"sync/atomic"

	"surfdeformer/internal/lattice"
	"surfdeformer/internal/pauli"
)

// Distance computation.
//
// The dressed distance of type T (T ∈ {X, Z}) is the minimum weight of a
// type-T Pauli that commutes with every stabilizer generator of the
// opposite type and anti-commutes with the opposite (bare) logical
// operator.
//
// For the planar codes in this repository every data qubit participates in
// at most two opposite-type stabilizer generators, so type-T operators are
// chains on a graph: each opposite-type generator is a vertex, each data
// qubit an edge between the generators it touches (with a single virtual
// boundary vertex ∂ absorbing missing endpoints). A chain is a valid
// operator iff it has even degree at every real vertex — i.e. it is a walk
// from ∂ to ∂ — and it is logical iff its crossing parity with the opposite
// bare logical is odd. The distance is therefore the shortest odd-parity
// ∂→∂ walk, found by BFS over (vertex, parity) states. Super-stabilizers
// appear merged, which is precisely how defect removal shortens logical
// operators; qubits invisible to every generator become ∂–∂ edges whose
// parity decides whether they are weight-1 dressed logicals.

// DistanceZ returns the minimum weight of a dressed logical Z operator. It
// is computed once per code state.
func (c *Code) DistanceZ() int { return c.memoDistance(&c.distZ, lattice.ZCheck) }

// DistanceX returns the minimum weight of a dressed logical X operator. It
// is computed once per code state.
func (c *Code) DistanceX() int { return c.memoDistance(&c.distX, lattice.XCheck) }

// Distance returns min(DistanceX, DistanceZ), the code distance.
func (c *Code) Distance() int {
	dx, dz := c.DistanceX(), c.DistanceZ()
	if dx < dz {
		return dx
	}
	return dz
}

const unreachable = 1 << 30

// chainEdge is one edge of the chain graph: the data qubit it represents,
// its endpoints (generator indices, or the boundary node), and its crossing
// parity with the opposite bare logical.
type chainEdge struct {
	u, v   int
	qubit  lattice.Coord
	parity bool
}

// chainGraph builds the chain graph for type-T logicals. It returns the
// edge list and the number of real vertices (the boundary node has index
// nGen).
func (c *Code) chainGraph(logicalType lattice.CheckType) (edges []chainEdge, nGen int, err error) {
	consType := logicalType.Opposite()
	var gens []pauli.Op
	for _, s := range c.stabs {
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
	crossing := c.logicalX
	if logicalType == lattice.XCheck {
		crossing = c.logicalZ
	}
	// Deterministic edge order (and hence BFS tie-breaking): which
	// minimum-weight walk wins decides the installed logical representative,
	// and downstream consumers (the bandage construction's gauge demotion)
	// are representative-*class* invariant only — two representatives that
	// differ by a check later demoted to a gauge stop being equivalent.
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
			edges = append(edges, chainEdge{gs[0], gs[1], q, parity})
		case 1:
			edges = append(edges, chainEdge{gs[0], boundary, q, parity})
		case 0:
			edges = append(edges, chainEdge{boundary, boundary, q, parity})
		default:
			return nil, 0, fmt.Errorf("code: qubit %v touched by %d %v-generators; chain graph undefined",
				q, len(gs), consType)
		}
	}
	return edges, nGen, nil
}

// memoDistance returns the distance held in slot, computing and storing it
// first when the slot is empty.
func (c *Code) memoDistance(slot *atomic.Int32, logicalType lattice.CheckType) int {
	if d := slot.Load(); d != 0 {
		return int(d)
	}
	d := c.distance(logicalType)
	slot.Store(int32(d))
	return d
}

func (c *Code) distance(logicalType lattice.CheckType) int {
	qubits, err := c.shortestLogicalPath(logicalType)
	if err != nil {
		return unreachable
	}
	return len(qubits)
}

// shortestLogicalPath finds the qubits of a minimum-weight type-T logical:
// the shortest ∂→∂ walk with odd crossing parity.
func (c *Code) shortestLogicalPath(logicalType lattice.CheckType) ([]lattice.Coord, error) {
	edges, nGen, err := c.chainGraph(logicalType)
	if err != nil {
		return nil, err
	}
	boundary := nGen
	adj := make([][]int, nGen+1) // edge indices per vertex
	for i, e := range edges {
		adj[e.u] = append(adj[e.u], i)
		if e.v != e.u {
			adj[e.v] = append(adj[e.v], i)
		}
	}
	// BFS over (vertex, parity).
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
				to = s.v // self-loop at the boundary
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
