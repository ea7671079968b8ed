package decoder

import (
	"math/bits"

	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
)

// Decode hot-path metrics: one atomic add per decode (pinned by
// TestDecodeZeroAllocs and the CI bench gate); truncations pay theirs only
// on the pathological path they count.
var (
	obsDecodes     = obs.Default().Counter("decoder.decodes")
	obsTruncations = obs.Default().Counter("decoder.truncations")
)

// UnionFind is a weighted union-find decoder (Delfosse–Nickerson): odd
// clusters grow uniformly along their frontier edges; fully grown edges
// merge clusters; clusters become inactive when their flagged-detector
// parity turns even or they touch the boundary. A peeling pass over each
// cluster's grown forest then produces a correction whose observable parity
// is the decoder's prediction.
//
// The implementation is allocation-free at steady state: every map the
// algorithm conceptually needs (active roots, peeling visitation, parent
// edges, per-node incidence) is a flat array stamped with a monotonically
// increasing epoch, so nothing is cleared between shots — a stale entry is
// simply one whose stamp is not the current epoch. Frontier membership is a
// per-edge bitset that the frontier scan clears as it reads it. All scratch
// slices are preallocated at their worst-case bound in NewUnionFind (and
// grown by Rebind past the largest graph seen), so a single decoder
// instance performs zero heap allocations per shot from the very first
// call.
type UnionFind struct {
	g *Graph

	parent   []int32
	parity   []int8 // flagged parity at root
	bound    []bool // cluster touches boundary (at root)
	growth   []float64
	grown    []bool
	absorbed []bool // node belongs to some cluster
	flag     []bool // peeling scratch

	touched []int32 // nodes absorbed this shot
	edges   []int32 // edge indices with non-zero growth this shot

	// epoch versions the stamped scratch below. It advances once per
	// growth iteration and once per peel, so a stamp matches only entries
	// written in the current pass; stale entries need no clearing.
	epoch      uint64
	rootSeen   []uint64 // per node: root deduped this growth iteration
	activeRoot []uint64 // per node: root is odd and boundary-free this iteration
	edgeSides  []uint8  // active sides of a frontier edge (valid per frontierBits)
	visited    []uint64 // per node: reached by this shot's peeling BFS
	parentEdge []int32  // BFS tree edge into a node (valid per visited)
	incStamp   []uint64 // per node: incidence row built this peel
	incOff     []int32  // CSR row start into incList (valid per incStamp)
	incCur     []int32  // CSR fill cursor; row end after the fill pass
	incList    []int32  // backing array for per-shot incidence rows

	frontierBits []uint64 // per edge: on this iteration's frontier; all zero between iterations
	frontier     []int64  // packed int64(ei)<<2|sides keys in ascending edge order
	order        []int32  // peeling BFS order; doubles as the BFS queue
	corr         []int32  // correction scratch returned by DecodeToEdges

	// Truncations counts shots whose syndrome the decoder failed to
	// annihilate: after peeling, a cluster root still carried a flag, so
	// the returned correction is partial. This can only happen on
	// pathological graphs (a flagged detector with no incident edges, or
	// the growth-iteration guard tripping) and is surfaced here instead
	// of being silently swallowed.
	Truncations int
}

// NewUnionFind builds a union-find decoder over the graph. All scratch is
// preallocated at worst-case bounds so decoding never allocates.
func NewUnionFind(g *Graph) *UnionFind {
	u := &UnionFind{}
	u.Rebind(g)
	return u
}

// Rebind points the decoder at g, so that one decoder can serve every
// graph a caller decodes against in turn. Between shots all scratch sits at
// its reset value — identity parents, zero parities and growth, clear flags
// and frontier bits, and epoch stamps older than any future epoch — none of
// it tied to a graph, so a rebound decoder decodes exactly like
// NewUnionFind(g). Scratch grows only past the largest graph seen:
// rebinding to a graph no larger allocates nothing. Truncations keeps
// counting across rebinds.
func (u *UnionFind) Rebind(g *Graph) {
	u.g = g
	if n := g.NumDets; n > len(u.parent) {
		u.parent = make([]int32, n)
		for i := range u.parent {
			u.parent[i] = int32(i)
		}
		u.parity = make([]int8, n)
		u.bound = make([]bool, n)
		u.absorbed = make([]bool, n)
		u.flag = make([]bool, n)
		u.touched = make([]int32, 0, n)
		u.rootSeen = make([]uint64, n)
		u.activeRoot = make([]uint64, n)
		u.visited = make([]uint64, n)
		u.parentEdge = make([]int32, n)
		u.incStamp = make([]uint64, n)
		u.incOff = make([]int32, n)
		u.incCur = make([]int32, n)
		u.order = make([]int32, 0, n)
		u.corr = make([]int32, 0, n)
	}
	if m := len(g.Edges); m > len(u.growth) {
		u.growth = make([]float64, m)
		u.grown = make([]bool, m)
		u.edges = make([]int32, 0, m)
		u.edgeSides = make([]uint8, m)
		u.incList = make([]int32, 2*m)
		u.frontierBits = make([]uint64, (m+63)/64)
		u.frontier = make([]int64, 0, m)
	}
}

// UnionFindFactory adapts the decoder to the sim.DecoderFactory interface.
func UnionFindFactory() sim.DecoderFactory {
	return func(dem *sim.DEM) (sim.Decoder, error) {
		g := SharedGraph(dem)
		if err := g.Validate(); err != nil {
			return nil, err
		}
		return NewUnionFind(g), nil
	}
}

var (
	_ sim.Decoder           = (*UnionFind)(nil)
	_ sim.TruncationCounter = (*UnionFind)(nil)
)

// TruncationCount implements sim.TruncationCounter: the number of decoded
// shots whose syndrome could not be fully annihilated (see Truncations).
func (u *UnionFind) TruncationCount() int { return u.Truncations }

func (u *UnionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *UnionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	u.parent[rb] = ra
	u.parity[ra] = (u.parity[ra] + u.parity[rb]) % 2
	u.bound[ra] = u.bound[ra] || u.bound[rb]
}

func (u *UnionFind) absorb(n int32) {
	if !u.absorbed[n] {
		u.absorbed[n] = true
		u.touched = append(u.touched, n)
	}
}

// DecodeToObs decodes one shot and predicts the logical observable flip.
func (u *UnionFind) DecodeToObs(flagged []int32) bool {
	edgeSet := u.DecodeToEdges(flagged)
	obs := false
	for _, ei := range edgeSet {
		if u.g.Edges[ei].Obs {
			obs = !obs
		}
	}
	return obs
}

// DecodeToEdges decodes one shot and returns the correction edge set. The
// correction annihilates the syndrome — its edge-set boundary equals the
// flagged set modulo the virtual boundary node — except on pathological
// graphs, where the truncation is counted in Truncations instead of being
// silently dropped.
//
// The returned slice is owned by the decoder and valid only until the next
// Decode* call; clone it to retain it.
func (u *UnionFind) DecodeToEdges(flagged []int32) []int32 {
	obsDecodes.Inc()
	if len(flagged) == 0 {
		return nil
	}
	defer u.reset()
	for _, d := range flagged {
		u.absorb(d)
		u.parity[d] = 1
	}

	maxIter := 4 * len(u.g.Edges)
	for iter := 0; iter <= maxIter; iter++ {
		if u.markActive() == 0 {
			break
		}
		minStep := u.gatherFrontier()
		if len(u.frontier) == 0 {
			break
		}
		// The frontier arrives in ascending edge order, so the union/absorb
		// sequence, the order of u.edges that peeling walks, and therefore
		// every correction and Monte-Carlo failure count is deterministic.
		for _, key := range u.frontier {
			ei := int32(key >> 2)
			sides := float64(key & 3)
			if u.growth[ei] == 0 {
				u.edges = append(u.edges, ei)
			}
			u.growth[ei] += minStep * sides
			if u.growth[ei] >= u.g.Edges[ei].Weight-1e-12 && !u.grown[ei] {
				u.grown[ei] = true
				e := u.g.Edges[ei]
				if e.V == Boundary {
					u.absorb(e.U)
					u.bound[u.find(e.U)] = true
				} else {
					u.absorb(e.U)
					u.absorb(e.V)
					u.union(e.U, e.V)
				}
			}
		}
	}
	if u.peel(flagged) > 0 {
		u.Truncations++
		obsTruncations.Inc()
	}
	return u.corr
}

// markActive stamps the roots of odd, boundary-free clusters with a fresh
// epoch and returns how many there are.
func (u *UnionFind) markActive() int {
	u.epoch++
	e := u.epoch
	active := 0
	for _, n := range u.touched {
		r := u.find(n)
		if u.rootSeen[r] == e {
			continue
		}
		u.rootSeen[r] = e
		if u.parity[r] == 1 && !u.bound[r] {
			u.activeRoot[r] = e
			active++
		}
	}
	return active
}

// gatherFrontier collects the non-grown edges incident to active clusters
// into u.frontier as packed int64(ei)<<2|sides keys in ascending edge
// order, where sides is the number of active sides (an edge grown from both
// sides completes twice as fast, capped at 2). It returns the uniform growth
// step: the smallest remaining weight over the frontier at the per-edge
// growth rate.
//
// Each frontier edge sets its bit in u.frontierBits; scanning the words
// between the lowest and highest one touched emits the keys already in edge
// order and clears every bit, leaving the bitset all zero on return.
func (u *UnionFind) gatherFrontier() float64 {
	e := u.epoch
	lo, hi := len(u.frontierBits), -1
	for _, n := range u.touched {
		if u.activeRoot[u.find(n)] != e {
			continue
		}
		for _, ei := range u.g.Adj(n) {
			if u.grown[ei] {
				continue
			}
			w, bit := int(ei>>6), uint64(1)<<(ei&63)
			if u.frontierBits[w]&bit == 0 {
				u.frontierBits[w] |= bit
				u.edgeSides[ei] = 1
				lo, hi = min(lo, w), max(hi, w)
			} else {
				u.edgeSides[ei]++
			}
		}
	}
	u.frontier = u.frontier[:0]
	minStep := -1.0
	for w := lo; w <= hi; w++ {
		word := u.frontierBits[w]
		u.frontierBits[w] = 0
		for word != 0 {
			ei := int32(w<<6 | bits.TrailingZeros64(word))
			word &= word - 1
			sides := min(u.edgeSides[ei], 2)
			rem := (u.g.Edges[ei].Weight - u.growth[ei]) / float64(sides)
			if minStep < 0 || rem < minStep {
				minStep = rem
			}
			u.frontier = append(u.frontier, int64(ei)<<2|int64(sides))
		}
	}
	return minStep
}

// peel extracts a correction from the grown forest into u.corr: BFS builds
// a spanning forest rooted at boundary attachments (where present) or at
// arbitrary cluster nodes, then leaves are peeled inward, emitting an edge
// whenever the leaf carries a flag. It returns the number of leftover
// flags — cluster roots still flagged after peeling, i.e. syndrome mass
// the correction failed to annihilate.
func (u *UnionFind) peel(flagged []int32) int {
	u.epoch++
	e := u.epoch
	u.corr = u.corr[:0]

	// Per-shot incidence over grown edges as a CSR index into u.incList.
	// Every endpoint of a grown edge is in u.touched (absorb runs when an
	// edge completes), so offsets can be assigned by walking touched.
	for _, ei := range u.edges {
		if !u.grown[ei] {
			continue
		}
		ed := u.g.Edges[ei]
		u.bumpDeg(ed.U, e)
		if ed.V != Boundary {
			u.bumpDeg(ed.V, e)
		}
	}
	off := int32(0)
	for _, n := range u.touched {
		if u.incStamp[n] != e {
			continue
		}
		deg := u.incCur[n]
		u.incOff[n] = off
		u.incCur[n] = off
		off += deg
	}
	for _, ei := range u.edges {
		if !u.grown[ei] {
			continue
		}
		ed := u.g.Edges[ei]
		u.incList[u.incCur[ed.U]] = ei
		u.incCur[ed.U]++
		if ed.V != Boundary {
			u.incList[u.incCur[ed.V]] = ei
			u.incCur[ed.V]++
		}
	}

	u.order = u.order[:0]
	head := 0
	bfs := func() {
		for head < len(u.order) {
			n := u.order[head]
			head++
			if u.incStamp[n] != e {
				continue // no grown incident edges (isolated cluster root)
			}
			for _, ei := range u.incList[u.incOff[n]:u.incCur[n]] {
				ed := u.g.Edges[ei]
				other := ed.U
				if other == n {
					other = ed.V
				}
				if other == Boundary || u.visited[other] == e {
					continue
				}
				u.visited[other] = e
				u.parentEdge[other] = ei
				u.order = append(u.order, other)
			}
		}
	}
	// Components with boundary attachments are rooted at the boundary:
	// exhaust their BFS first so leftover flags drain into the boundary.
	for _, ei := range u.edges {
		ed := u.g.Edges[ei]
		if u.grown[ei] && ed.V == Boundary && u.visited[ed.U] != e {
			u.visited[ed.U] = e
			u.parentEdge[ed.U] = ei
			u.order = append(u.order, ed.U)
		}
	}
	bfs()
	// Remaining components (even parity): one root each, explored fully
	// before the next root is opened so the forest structure is real.
	for _, n := range u.touched {
		if u.visited[n] != e {
			u.visited[n] = e
			u.parentEdge[n] = -1
			u.order = append(u.order, n)
			bfs()
		}
	}

	for _, d := range flagged {
		u.flag[d] = true
	}
	leftover := 0
	for i := len(u.order) - 1; i >= 0; i-- {
		n := u.order[i]
		if !u.flag[n] {
			continue
		}
		ei := u.parentEdge[n]
		if ei < 0 {
			// A flagged forest root: its cluster's syndrome parity could
			// not be drained (odd parity with no boundary), so part of
			// the syndrome survives the correction.
			leftover++
			continue
		}
		u.corr = append(u.corr, ei)
		u.flag[n] = false
		ed := u.g.Edges[ei]
		other := ed.U
		if other == n {
			other = ed.V
		}
		if other != Boundary {
			u.flag[other] = !u.flag[other]
		}
	}
	for _, d := range flagged {
		u.flag[d] = false
	}
	for _, n := range u.touched {
		u.flag[n] = false
	}
	return leftover
}

// bumpDeg counts one incidence for node n under epoch e, initializing the
// node's counter on first touch this peel.
func (u *UnionFind) bumpDeg(n int32, e uint64) {
	if u.incStamp[n] != e {
		u.incStamp[n] = e
		u.incCur[n] = 0
	}
	u.incCur[n]++
}

func (u *UnionFind) reset() {
	for _, n := range u.touched {
		u.parent[n] = n
		u.parity[n] = 0
		u.bound[n] = false
		u.absorbed[n] = false
	}
	for _, ei := range u.edges {
		u.growth[ei] = 0
		u.grown[ei] = false
	}
	u.touched = u.touched[:0]
	u.edges = u.edges[:0]
}
