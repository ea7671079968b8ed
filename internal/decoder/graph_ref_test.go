package decoder

// This file keeps the one-pass graph builder that NewGraph replaced as the
// oracle refNewGraph: it merges parallel mechanisms and rates each edge in
// the same pass, through a map, where NewGraph merges a rate-free skeleton
// and folds it. It is that builder verbatim, less the skeleton it recorded
// and its metrics, reading each mechanism's probability from DEM.P.

import (
	"math"
	"sort"

	"surfdeformer/internal/sim"
)

// refNewGraph converts a DEM into a decoding graph. Mechanisms touching
// more than two detectors are decomposed into consecutive pairs (detector
// IDs are round-ordered, so consecutive pairing follows the space-time
// layout).
func refNewGraph(dem *sim.DEM) *Graph {
	g := &Graph{NumDets: dem.NumDets}
	type key struct{ u, v int32 }
	acc := map[key]*Edge{}
	addPair := func(u, v int32, p float64, obs bool) {
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
		if e, ok := acc[k]; ok {
			// Merge parallel mechanisms; keep the dominant observable flag.
			newP := e.P + p - 2*e.P*p
			if p > e.P {
				e.Obs = obs
			}
			e.P = newP
			return
		}
		acc[k] = &Edge{U: u, V: v, Obs: obs, P: p}
	}
	for mi, m := range dem.Mechs {
		p := dem.P[mi]
		switch len(m.Dets) {
		case 0:
			if m.Obs {
				g.FreeLogicalP = g.FreeLogicalP + p - 2*g.FreeLogicalP*p
			}
		case 1:
			addPair(m.Dets[0], Boundary, p, m.Obs)
		case 2:
			addPair(m.Dets[0], m.Dets[1], p, m.Obs)
		default:
			g.Decomposed++
			// Pair consecutive detectors; attach the observable flip to the
			// first pair only (the decomposition keeps total parity).
			for i := 0; i+1 < len(m.Dets); i += 2 {
				addPair(m.Dets[i], m.Dets[i+1], p, m.Obs && i == 0)
			}
			if len(m.Dets)%2 == 1 {
				addPair(m.Dets[len(m.Dets)-1], Boundary, p, false)
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
	for _, k := range keys {
		e := *acc[k]
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
	}
	g.buildAdj()
	return g
}
