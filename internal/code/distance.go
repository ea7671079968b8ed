package code

import (
	"fmt"
	"sync/atomic"

	"surfdeformer/internal/lattice"
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

// chainGraph is the chain graph for type-T logicals over the sorted data
// list: edge i is data qubit i of the list, between vertices u[i] and v[i]
// (opposite-type generators numbered in stabilizer order, or the boundary
// node nGen), with crossing parity par[i] against the opposite bare
// logical. Its adjacency is CSR: the edges at vertex x are
// adj[off[x]:off[x+1]], ascending, a self-loop listed once.
//
// The edge order (and hence BFS tie-breaking) is the data order: which
// minimum-weight walk wins decides the installed logical representative,
// and downstream consumers (the bandage construction's gauge demotion) are
// representative-*class* invariant only — two representatives that differ
// by a check later demoted to a gauge stop being equivalent.
type chainGraph struct {
	nGen     int
	u, v     []int32
	par      []bool
	off, adj []int32
}

// newChainGraph builds the chain graph for type-T logicals over qs, the
// sorted data list. Each opposite-type generator's support is placed in qs
// by binary search, and the crossing parities come from one merge walk over
// the crossing logical's sorted support: Z_q anti-commutes with the
// crossing X logical exactly where that has an X component, and X_q with
// the crossing Z logical where that has a Z component.
func (c *Code) newChainGraph(logicalType lattice.CheckType, qs []lattice.Coord) (*chainGraph, error) {
	consType := logicalType.Opposite()
	n := len(qs)
	// Per data qubit: how many generators touch it, and the first two.
	touch := make([]int32, 3*n)
	cnt, g0, g1 := touch[:n], touch[n:2*n], touch[2*n:]
	nGen := int32(0)
	for _, s := range c.stabs {
		t, ok := s.Op.CSSType()
		if !ok || t != consType || s.Op.IsIdentity() {
			continue
		}
		supp := s.Op.XSupport()
		if t == lattice.ZCheck {
			supp = s.Op.ZSupport()
		}
		for _, q := range supp {
			i, found := position(qs, q)
			if !found {
				continue
			}
			switch cnt[i] {
			case 0:
				g0[i] = nGen
			case 1:
				g1[i] = nGen
			}
			cnt[i]++
		}
		nGen++
	}
	boundary := nGen
	g := &chainGraph{nGen: int(nGen), par: make([]bool, n)}
	nv := int(nGen) + 1
	buf := make([]int32, 4*n+2*(nv+1))
	g.u, g.v, g.adj, g.off = buf[:n], buf[n:2*n], buf[2*n:2*n], buf[4*n:4*n+nv+1]
	fill := buf[4*n+nv+1:] // the CSR fill cursors
	crossing := c.logicalX.XSupport()
	if logicalType == lattice.XCheck {
		crossing = c.logicalZ.ZSupport()
	}
	j := 0
	for i, q := range qs {
		switch cnt[i] {
		case 2:
			g.u[i], g.v[i] = g0[i], g1[i]
		case 1:
			g.u[i], g.v[i] = g0[i], boundary
		case 0:
			g.u[i], g.v[i] = boundary, boundary
		default:
			return nil, fmt.Errorf("code: qubit %v touched by %d %v-generators; chain graph undefined",
				q, cnt[i], consType)
		}
		for j < len(crossing) && crossing[j].Less(q) {
			j++
		}
		g.par[i] = j < len(crossing) && crossing[j] == q
	}
	// CSR by counting: off[x+1] counts vertex x's edges, the prefix sums
	// place them, and a fill in edge order keeps each list ascending.
	for i := range qs {
		g.off[g.u[i]+1]++
		if g.v[i] != g.u[i] {
			g.off[g.v[i]+1]++
		}
	}
	for x := 1; x <= nv; x++ {
		g.off[x] += g.off[x-1]
	}
	g.adj = g.adj[:g.off[nv]]
	copy(fill, g.off)
	for i := range qs {
		g.adj[fill[g.u[i]]] = int32(i)
		fill[g.u[i]]++
		if g.v[i] != g.u[i] {
			g.adj[fill[g.v[i]]] = int32(i)
			fill[g.v[i]]++
		}
	}
	return g, nil
}

// position returns q's index in qs, which is sorted row-major, by binary
// search.
func position(qs []lattice.Coord, q lattice.Coord) (int, bool) {
	lo, hi := 0, len(qs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p := qs[m]; p.Row < q.Row || p.Row == q.Row && p.Col < q.Col {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(qs) && qs[lo] == q
}

// search runs the BFS over (vertex, parity) states from (∂, even) to
// (∂, odd). It returns the goal's distance, unreachable when no odd walk
// exists, and with wantPath the walk's edges, last edge first. Each state
// enters the preallocated queue at most once: BFS reaches every state first
// along a shortest walk.
func (g *chainGraph) search(wantPath bool) (int, []int32) {
	ns := 2 * (g.nGen + 1)
	buf := make([]int32, 4*ns)
	dist, prevEdge, prevState, queue := buf[:ns], buf[ns:2*ns], buf[2*ns:3*ns], buf[3*ns:3*ns]
	for i := range dist {
		dist[i] = unreachable
		prevEdge[i] = -1
		prevState[i] = -1
	}
	start, goal := int32(2*g.nGen), int32(2*g.nGen+1)
	dist[start] = 0
	queue = append(queue, start)
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		if s == goal {
			break
		}
		at, parity := s>>1, s&1
		for _, e := range g.adj[g.off[at]:g.off[at+1]] {
			// The far end: v from u, u from v, and at itself on a self-loop.
			to := g.u[e] ^ g.v[e] ^ at
			p := parity
			if g.par[e] {
				p ^= 1
			}
			next := to<<1 | p
			if dist[next] > dist[s]+1 {
				dist[next] = dist[s] + 1
				prevEdge[next] = e
				prevState[next] = s
				queue = append(queue, next)
			}
		}
	}
	d := int(dist[goal])
	if d >= unreachable || !wantPath {
		return d, nil
	}
	path := make([]int32, 0, d)
	for s := goal; prevEdge[s] >= 0; s = prevState[s] {
		path = append(path, prevEdge[s])
	}
	return d, path
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

// distance is the length of the shortest logical walk: the BFS distance of
// the odd boundary state, without the walk itself.
func (c *Code) distance(logicalType lattice.CheckType) int {
	g, err := c.newChainGraph(logicalType, c.DataQubits())
	if err != nil {
		return unreachable
	}
	d, _ := g.search(false)
	return d
}

// shortestLogicalPath finds the qubits of a minimum-weight type-T logical
// over qs, the sorted data list: the shortest ∂→∂ walk with odd crossing
// parity, last qubit first.
func (c *Code) shortestLogicalPath(logicalType lattice.CheckType, qs []lattice.Coord) ([]lattice.Coord, error) {
	g, err := c.newChainGraph(logicalType, qs)
	if err != nil {
		return nil, err
	}
	d, path := g.search(true)
	if d >= unreachable {
		return nil, fmt.Errorf("code: no %v logical operator exists", logicalType)
	}
	qubits := make([]lattice.Coord, len(path))
	for i, e := range path {
		qubits[i] = qs[e]
	}
	return qubits, nil
}
