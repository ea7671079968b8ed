// Package decoder implements syndrome decoders over decoding graphs derived
// from detector error models: a weighted union-find decoder (the
// Delfosse–Nickerson almost-linear-time near-MWPM decoder used in place of
// the paper's PyMatching), a greedy pairwise matcher, and an exact
// minimum-weight perfect matching for small syndromes used to validate the
// others.
package decoder

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
)

// Graph-construction metrics. Clamped/dropped edges aggregate across a
// whole sweep here (the per-Graph ints only describe one build), feeding
// the end-of-run silent-degradation warning.
var (
	obsGraphBuilds    = obs.Default().Counter("decoder.graph.builds")
	obsGraphRederives = obs.Default().Counter("decoder.graph.rederives")
	obsGraphClamped   = obs.Default().Counter("decoder.graph.edges_clamped")
	obsGraphDropped   = obs.Default().Counter("decoder.graph.edges_dropped")
)

// Boundary is the virtual boundary node index in decoding graphs.
const Boundary = -1

// Edge is one decoding-graph edge: an error mechanism connecting two
// detectors (or one detector and the boundary) with weight -log(p/(1-p))
// and a flag telling whether the mechanism flips the logical observable.
type Edge struct {
	U, V   int32 // V == Boundary for boundary edges
	Weight float64
	Obs    bool
	P      float64
}

// Graph is a decoding graph over the detectors of one DEM.
type Graph struct {
	NumDets int
	Edges   []Edge
	// CSR adjacency: the edge indices incident to detector d are
	// adjList[adjOff[d]:adjOff[d+1]]. One flat backing array keeps the
	// per-shot frontier scan cache-friendly and allocation-free; built
	// once by buildAdj after the edge list is final.
	adjOff  []int32
	adjList []int32
	// Decomposed counts mechanisms with more than two detectors that were
	// split into edge chains; FreeLogicalP accumulates the probability mass
	// of mechanisms that flip the observable without touching any detector
	// (irreducible failures no decoder can see).
	Decomposed   int
	FreeLogicalP float64
	// Clamped counts edges whose merged probability reached ½ and was
	// clamped to MaxEdgeProb; Dropped counts merged edges discarded for a
	// non-positive probability. Both are zero on nominal DEMs but reachable
	// once reweighted decode priors elevate edge rates toward ½ — surfaced
	// so consumers can see how much of the prior the graph could not
	// represent instead of losing it silently.
	Clamped int
	Dropped int

	// skel is the merge skeleton this graph was folded from, kept when no
	// edge dropped, so GraphFrom can refold a structurally identical DEM
	// (same mechanism set, different probabilities) without merging again.
	skel *graphSkel
}

// skelContrib is one mechanism's contribution to a merged edge: the
// mechanism supplies the probability at fold time, obs is the flag the
// merge carried (false for the non-leading pairs of a decomposed
// mechanism).
type skelContrib struct {
	mech int32
	obs  bool
}

// graphSkel is the rate-free merge of a DEM's mechanisms into edges: per
// edge, in (U, V) order, its endpoints and (CSR via edgeOff) the mechanism
// contributions in merge order, plus the mechanisms folded into
// FreeLogicalP and the count of decomposed mechanisms. mechEdges, CSR via
// mechOff, lists per mechanism the edges it contributes to, so a refold
// visits only the edges of mechanisms whose probability changed. The CSR
// adjacency of the full edge list is a pure function of the endpoints, so
// every graph folded from the skeleton without a drop shares it; NewGraph
// sets it from the skeleton's first fold.
type graphSkel struct {
	ends       [][2]int32
	edgeOff    []int32
	contribs   []skelContrib
	mechOff    []int32
	mechEdges  []int32
	free       []int32
	decomposed int
	adjOff     []int32
	adjList    []int32
}

// MaxEdgeProb is the edge-probability ceiling of the decoding graph. An
// error mechanism at p ≥ ½ has a non-positive log-likelihood weight
// -log(p/(1-p)), which the union-find growth model cannot represent, so
// such edges are clamped just below ½: "this edge is (almost) free to
// traverse". The count of clamps is reported in Graph.Clamped.
const MaxEdgeProb = 0.4999

// NewGraph converts a DEM into a decoding graph: its merge skeleton, folded
// under the DEM's probabilities. Mechanisms touching more than two
// detectors are decomposed into consecutive pairs (detector IDs are
// round-ordered, so consecutive pairing follows the space-time layout).
func NewGraph(dem *sim.DEM) *Graph {
	obsGraphBuilds.Inc()
	sk := newSkel(dem)
	g := sk.fold(dem)
	if g.skel != nil {
		// The fresh skeleton takes its first fold's adjacency before any
		// other graph can reach it.
		sk.adjOff, sk.adjList = g.adjOff, g.adjList
	}
	return g
}

// newSkel merges dem's mechanisms into edges: each edge's contributions in
// mechanism order, the edges sorted by (U, V).
func newSkel(dem *sim.DEM) *graphSkel {
	type key struct{ u, v int32 }
	acc := map[key][]skelContrib{}
	sk := &graphSkel{}
	addPair := func(u, v int32, obs bool, mech int32) {
		// Canonical order: boundary always in V, otherwise ascending.
		if u == Boundary {
			u, v = v, u
		}
		if v != Boundary && u > v {
			u, v = v, u
		}
		if u == Boundary {
			return // boundary-boundary mechanisms carry no decodable info
		}
		k := key{u, v}
		acc[k] = append(acc[k], skelContrib{mech: mech, obs: obs})
	}
	for mi, m := range dem.Mechs {
		mech := int32(mi)
		switch len(m.Dets) {
		case 0:
			if m.Obs {
				sk.free = append(sk.free, mech)
			}
		case 1:
			addPair(m.Dets[0], Boundary, m.Obs, mech)
		case 2:
			addPair(m.Dets[0], m.Dets[1], m.Obs, mech)
		default:
			sk.decomposed++
			// Pair consecutive detectors; attach the observable flip to the
			// first pair only (the decomposition keeps total parity).
			for i := 0; i+1 < len(m.Dets); i += 2 {
				addPair(m.Dets[i], m.Dets[i+1], m.Obs && i == 0, mech)
			}
			if len(m.Dets)%2 == 1 {
				addPair(m.Dets[len(m.Dets)-1], Boundary, false, mech)
			}
		}
	}
	keys := make([]key, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v))
	})
	sk.ends = make([][2]int32, len(keys))
	sk.edgeOff = make([]int32, 1, len(keys)+1)
	for i, k := range keys {
		sk.ends[i] = [2]int32{k.u, k.v}
		sk.contribs = append(sk.contribs, acc[k]...)
		sk.edgeOff = append(sk.edgeOff, int32(len(sk.contribs)))
	}
	// The mechanism → edges CSR, a counting sort of the contributions by
	// mechanism: mechOff[m+1] counts, then the fill advances mechOff[m] to
	// the end of m's row, and the final shift restores the row starts.
	sk.mechOff = make([]int32, len(dem.Mechs)+1)
	for _, c := range sk.contribs {
		sk.mechOff[c.mech+1]++
	}
	for m := range dem.Mechs {
		sk.mechOff[m+1] += sk.mechOff[m]
	}
	sk.mechEdges = make([]int32, len(sk.contribs))
	for ei := range sk.ends {
		for _, c := range sk.contribs[sk.edgeOff[ei]:sk.edgeOff[ei+1]] {
			sk.mechEdges[sk.mechOff[c.mech]] = int32(ei)
			sk.mechOff[c.mech]++
		}
	}
	copy(sk.mechOff[1:], sk.mechOff[:len(dem.Mechs)])
	sk.mechOff[0] = 0
	return sk
}

// fold rates the skeleton under dem's mechanism probabilities: every
// edge through sk.edge, FreeLogicalP through sk.freeLogicalP. An edge at
// p ≤ 0 is dropped. The graph keeps the skeleton and shares its adjacency
// only when nothing dropped: a drop depends on probabilities, so the edge
// list then no longer follows the skeleton.
func (sk *graphSkel) fold(dem *sim.DEM) *Graph {
	g := &Graph{NumDets: dem.NumDets, Decomposed: sk.decomposed, FreeLogicalP: sk.freeLogicalP(dem.P),
		Edges: make([]Edge, len(sk.ends))}
	n := 0
	for ei := range sk.ends {
		e := &g.Edges[n]
		sk.edge(e, ei, dem.P)
		if e.P <= 0 {
			g.Dropped++
			continue
		}
		if e.P >= 0.5 {
			g.Clamped++
		}
		n++
	}
	g.Edges = g.Edges[:n]
	if g.Dropped == 0 && sk.adjOff != nil {
		g.adjOff, g.adjList = sk.adjOff, sk.adjList
	} else {
		g.buildAdj()
	}
	if g.Dropped == 0 {
		g.skel = sk
	}
	obsGraphClamped.Add(int64(g.Clamped))
	obsGraphDropped.Add(int64(g.Dropped))
	return g
}

// refold returns the graph of dem given base, a DEM of the same plan core,
// and its graph g0, which sk folded without a drop: g0's edges with only
// the edges of mechanisms whose probability differs between dem and base
// folded again, Clamped adjusted against each refolded edge's old value
// and FreeLogicalP folded again. Refolding an edge is idempotent, so an
// edge several changed mechanisms share needs no mark. When a refolded
// edge would drop, the edge list no longer follows the skeleton, and the
// full fold answers.
func (sk *graphSkel) refold(dem, base *sim.DEM, g0 *Graph) *Graph {
	g := &Graph{NumDets: dem.NumDets, Decomposed: sk.decomposed, FreeLogicalP: sk.freeLogicalP(dem.P),
		Edges: slices.Clone(g0.Edges), Clamped: g0.Clamped, adjOff: g0.adjOff, adjList: g0.adjList, skel: sk}
	p, p0 := dem.P, base.P
	for mi := range p {
		if p[mi] == p0[mi] {
			continue
		}
		for _, ei := range sk.mechEdges[sk.mechOff[mi]:sk.mechOff[mi+1]] {
			e := &g.Edges[ei]
			if e.P >= 0.5 {
				g.Clamped--
			}
			sk.edge(e, int(ei), p)
			if e.P <= 0 {
				return sk.fold(dem)
			}
			if e.P >= 0.5 {
				g.Clamped++
			}
		}
	}
	obsGraphClamped.Add(int64(g.Clamped))
	return g
}

// edge folds skeleton edge ei under the mechanism probabilities p into e.
// Its contributions merge as independent XOR events, p ⊕ q = p + q − 2pq,
// in skeleton order, and the edge keeps the observable flag of its
// dominant contribution. Edge.P keeps the merged probability; the weight
// reads it clamped to MaxEdgeProb at p ≥ ½. An edge at p ≤ 0 is the
// caller's to drop. Writing in place rather than returning the 32-byte
// edge measured ~20% faster in BenchmarkGraphFrom (one CPU of a shared
// 2-vCPU host).
func (sk *graphSkel) edge(e *Edge, ei int, p []float64) {
	*e = Edge{U: sk.ends[ei][0], V: sk.ends[ei][1]}
	for ci := sk.edgeOff[ei]; ci < sk.edgeOff[ei+1]; ci++ {
		c := sk.contribs[ci]
		q := p[c.mech]
		if ci == sk.edgeOff[ei] {
			e.P, e.Obs = q, c.obs
			continue
		}
		if q > e.P {
			e.Obs = c.obs
		}
		e.P = e.P + q - 2*e.P*q
	}
	w := e.P
	if w >= 0.5 {
		w = MaxEdgeProb
	}
	e.Weight = math.Log((1 - w) / w)
}

// freeLogicalP XOR-folds the probabilities of the mechanisms that flip
// only the observable.
func (sk *graphSkel) freeLogicalP(p []float64) float64 {
	f := 0.0
	for _, mi := range sk.free {
		f = f + p[mi] - 2*f*p[mi]
	}
	return f
}

// GraphFrom returns the decoding graph of dem given base and its graph
// baseGraph: baseGraph itself when dem is base, baseGraph refolded where
// dem's probabilities differ from base's when dem was patched from base
// (sim.SamePatchCore) and baseGraph kept its skeleton, and a full NewGraph
// otherwise. The result equals NewGraph(dem); nothing is cached.
func GraphFrom(dem, base *sim.DEM, baseGraph *Graph) *Graph {
	if dem == base {
		return baseGraph
	}
	if baseGraph.skel != nil && sim.SamePatchCore(dem, base) {
		obsGraphRederives.Inc()
		return baseGraph.skel.refold(dem, base, baseGraph)
	}
	return NewGraph(dem)
}

// buildAdj (re)builds the CSR adjacency index from Edges. Rows list edge
// indices in ascending order because the fill pass walks Edges in order.
func (g *Graph) buildAdj() {
	g.adjOff = make([]int32, g.NumDets+1)
	for _, e := range g.Edges {
		if e.U != Boundary {
			g.adjOff[e.U+1]++
		}
		if e.V != Boundary {
			g.adjOff[e.V+1]++
		}
	}
	for i := 0; i < g.NumDets; i++ {
		g.adjOff[i+1] += g.adjOff[i]
	}
	g.adjList = make([]int32, g.adjOff[g.NumDets])
	cur := make([]int32, g.NumDets)
	for i, e := range g.Edges {
		if e.U != Boundary {
			g.adjList[g.adjOff[e.U]+cur[e.U]] = int32(i)
			cur[e.U]++
		}
		if e.V != Boundary {
			g.adjList[g.adjOff[e.V]+cur[e.V]] = int32(i)
			cur[e.V]++
		}
	}
}

// Adj returns the edge indices incident to detector d.
func (g *Graph) Adj(d int32) []int32 { return g.adjList[g.adjOff[d]:g.adjOff[d+1]] }

// Validate performs structural checks used by tests.
func (g *Graph) Validate() error {
	for i, e := range g.Edges {
		if e.U == Boundary && e.V == Boundary {
			return fmt.Errorf("decoder: edge %d connects boundary to boundary", i)
		}
		if e.Weight < 0 {
			return fmt.Errorf("decoder: edge %d has negative weight", i)
		}
	}
	return nil
}
