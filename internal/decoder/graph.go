// Package decoder implements syndrome decoders over decoding graphs derived
// from detector error models: a weighted union-find decoder (the
// Delfosse–Nickerson almost-linear-time near-MWPM decoder used in place of
// the paper's PyMatching), a greedy pairwise matcher, and an exact
// minimum-weight perfect matching for small syndromes used to validate the
// others.
package decoder

import (
	"fmt"
	"math"
	"sort"

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

	// skel records how this graph's edges were merged from DEM mechanisms,
	// enabling rederive to produce the graph of a structurally identical
	// DEM (same mechanism set, different probabilities) without re-running
	// the merge. Nil when any merged edge was dropped: a drop depends on
	// probabilities, so the edge set itself would no longer be structural.
	skel *graphSkel
}

// skelContrib is one mechanism's contribution to a merged edge: the
// mechanism supplies the probability at replay time, obs is the flag the
// original addPair carried (false for the non-leading pairs of a
// decomposed mechanism).
type skelContrib struct {
	mech int32
	obs  bool
}

// graphSkel is the merge skeleton: per emitted edge (CSR via edgeOff) the
// mechanism contributions in original merge order, plus the mechanisms
// folded into FreeLogicalP.
type graphSkel struct {
	nMechs   int
	edgeOff  []int32
	contribs []skelContrib
	free     []int32
}

// MaxEdgeProb is the edge-probability ceiling of the decoding graph. An
// error mechanism at p ≥ ½ has a non-positive log-likelihood weight
// -log(p/(1-p)), which the union-find growth model cannot represent, so
// such edges are clamped just below ½: "this edge is (almost) free to
// traverse". The count of clamps is reported in Graph.Clamped.
const MaxEdgeProb = 0.4999

// NewGraph converts a DEM into a decoding graph. Mechanisms touching more
// than two detectors are decomposed into consecutive pairs (detector IDs
// are round-ordered, so consecutive pairing follows the space-time layout).
func NewGraph(dem *sim.DEM) *Graph {
	g := &Graph{NumDets: dem.NumDets}
	type key struct{ u, v int32 }
	type accEnt struct {
		e        Edge
		contribs []skelContrib
	}
	acc := map[key]*accEnt{}
	var free []int32
	addPair := func(u, v int32, p float64, obs bool, mech int32) {
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
		if ent, ok := acc[k]; ok {
			// Merge parallel mechanisms; keep the dominant observable flag.
			e := &ent.e
			newP := e.P + p - 2*e.P*p
			if p > e.P {
				e.Obs = obs
			}
			e.P = newP
			ent.contribs = append(ent.contribs, skelContrib{mech: mech, obs: obs})
			return
		}
		acc[k] = &accEnt{
			e:        Edge{U: u, V: v, Obs: obs, P: p},
			contribs: []skelContrib{{mech: mech, obs: obs}},
		}
	}
	for mi, m := range dem.Mechs {
		mech := int32(mi)
		switch len(m.Dets) {
		case 0:
			if m.Obs {
				g.FreeLogicalP = g.FreeLogicalP + m.P - 2*g.FreeLogicalP*m.P
				free = append(free, mech)
			}
		case 1:
			addPair(m.Dets[0], Boundary, m.P, m.Obs, mech)
		case 2:
			addPair(m.Dets[0], m.Dets[1], m.P, m.Obs, mech)
		default:
			g.Decomposed++
			// Pair consecutive detectors; attach the observable flip to the
			// first pair only (the decomposition keeps total parity).
			for i := 0; i+1 < len(m.Dets); i += 2 {
				addPair(m.Dets[i], m.Dets[i+1], m.P, m.Obs && i == 0, mech)
			}
			if len(m.Dets)%2 == 1 {
				addPair(m.Dets[len(m.Dets)-1], Boundary, m.P, false, mech)
			}
		}
	}
	keys := make([]key, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].u != keys[j].u {
			return keys[i].u < keys[j].u
		}
		return keys[i].v < keys[j].v
	})
	sk := &graphSkel{nMechs: len(dem.Mechs), edgeOff: make([]int32, 0, len(keys)+1), free: free}
	sk.edgeOff = append(sk.edgeOff, 0)
	for _, k := range keys {
		ent := acc[k]
		e := ent.e
		p := e.P
		if p <= 0 {
			g.Dropped++
			continue
		}
		if p >= 0.5 {
			g.Clamped++
			p = MaxEdgeProb
		}
		e.Weight = math.Log((1 - p) / p)
		g.Edges = append(g.Edges, e)
		sk.contribs = append(sk.contribs, ent.contribs...)
		sk.edgeOff = append(sk.edgeOff, int32(len(sk.contribs)))
	}
	if g.Dropped == 0 {
		g.skel = sk
	}
	g.buildAdj()
	obsGraphBuilds.Inc()
	obsGraphClamped.Add(int64(g.Clamped))
	obsGraphDropped.Add(int64(g.Dropped))
	return g
}

// GraphFrom returns the decoding graph of dem given base and its graph
// baseGraph: baseGraph itself when dem is base, a replay of baseGraph's
// merge skeleton when dem was patched from base (sim.SamePatchCore), and a
// full NewGraph otherwise. The result equals NewGraph(dem); nothing is
// cached.
func GraphFrom(dem, base *sim.DEM, baseGraph *Graph) *Graph {
	if dem == base {
		return baseGraph
	}
	if sim.SamePatchCore(dem, base) {
		if g := baseGraph.rederive(dem); g != nil {
			obsGraphRederives.Inc()
			return g
		}
	}
	return NewGraph(dem)
}

// rederive builds the decoding graph of dem by replaying this graph's
// merge skeleton with dem's mechanism probabilities — identical output to
// NewGraph(dem) whenever dem shares this graph's DEM structure (same
// mechanism detector sets in the same order, probabilities free to
// differ). The CSR adjacency and the skeleton itself are shared with the
// template: both are pure functions of the edge endpoints. Returns nil —
// caller falls back to NewGraph — when no skeleton was recorded, the
// detector count differs, or a replayed probability reaches a regime the
// template never saw (a drop, which changes the edge set).
func (g *Graph) rederive(dem *sim.DEM) *Graph {
	sk := g.skel
	if sk == nil || dem.NumDets != g.NumDets || len(dem.Mechs) != sk.nMechs {
		return nil
	}
	ng := &Graph{
		NumDets:    g.NumDets,
		Edges:      make([]Edge, len(g.Edges)),
		adjOff:     g.adjOff,
		adjList:    g.adjList,
		Decomposed: g.Decomposed,
		skel:       sk,
	}
	for _, mi := range sk.free {
		p := dem.Mechs[mi].P
		ng.FreeLogicalP = ng.FreeLogicalP + p - 2*ng.FreeLogicalP*p
	}
	for ei := range g.Edges {
		e := g.Edges[ei]
		accP, accObs := 0.0, false
		for ci := sk.edgeOff[ei]; ci < sk.edgeOff[ei+1]; ci++ {
			c := sk.contribs[ci]
			p := dem.Mechs[c.mech].P
			if ci == sk.edgeOff[ei] {
				accP, accObs = p, c.obs
				continue
			}
			if p > accP {
				accObs = c.obs
			}
			accP = accP + p - 2*accP*p
		}
		if accP <= 0 {
			return nil // this probability regime drops the edge: not structural
		}
		e.Obs = accObs
		e.P = accP
		if accP >= 0.5 {
			ng.Clamped++
			accP = MaxEdgeProb
		}
		e.Weight = math.Log((1 - accP) / accP)
		ng.Edges[ei] = e
	}
	obsGraphClamped.Add(int64(ng.Clamped))
	return ng
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
