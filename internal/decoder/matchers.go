package decoder

import (
	"container/heap"
	"math"

	"surfdeformer/internal/sim"
)

// pathInfo is the result of a single-source Dijkstra: distance and the
// observable parity of the shortest path.
type pathInfo struct {
	dist float64
	obs  bool
}

// dijkstra computes shortest paths from src to every detector and to the
// boundary, tracking the observable parity along the chosen paths.
func (g *Graph) dijkstra(src int32) (dists []pathInfo, boundary pathInfo) {
	const inf = math.MaxFloat64
	dists = make([]pathInfo, g.NumDets)
	for i := range dists {
		dists[i].dist = inf
	}
	boundary = pathInfo{dist: inf}
	dists[src].dist = 0
	pq := &distHeap{{src, 0}}
	done := make([]bool, g.NumDets)
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if done[item.node] {
			continue
		}
		done[item.node] = true
		d := dists[item.node]
		for _, ei := range g.Adj(item.node) {
			e := g.Edges[ei]
			other := e.U
			if other == item.node {
				other = e.V
			}
			nd := d.dist + e.Weight
			nobs := d.obs != e.Obs
			if other == Boundary {
				if nd < boundary.dist {
					boundary = pathInfo{nd, nobs}
				}
				continue
			}
			if nd < dists[other].dist {
				dists[other] = pathInfo{nd, nobs}
				heap.Push(pq, distItem{other, nd})
			}
		}
	}
	return dists, boundary
}

type distItem struct {
	node int32
	d    float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// Greedy matches flagged detectors pairwise (or to the boundary) in
// ascending distance order. It is a simple near-MWPM baseline used in the
// decoder ablation study.
type Greedy struct{ g *Graph }

// NewGreedy builds a greedy matcher over the graph.
func NewGreedy(g *Graph) *Greedy { return &Greedy{g} }

var _ sim.Decoder = (*Greedy)(nil)

// DecodeToObs implements sim.Decoder.
func (d *Greedy) DecodeToObs(flagged []int32) bool {
	n := len(flagged)
	if n == 0 {
		return false
	}
	pair, bound := d.g.pairwise(flagged)
	type cand struct {
		i, j int // j == -1 for boundary
		info pathInfo
	}
	var cands []cand
	for i := 0; i < n; i++ {
		cands = append(cands, cand{i, -1, bound[i]})
		for j := i + 1; j < n; j++ {
			cands = append(cands, cand{i, j, pair[i][j]})
		}
	}
	// Selection sort by distance (candidate lists are small).
	for a := 0; a < len(cands); a++ {
		best := a
		for b := a + 1; b < len(cands); b++ {
			if cands[b].info.dist < cands[best].info.dist {
				best = b
			}
		}
		cands[a], cands[best] = cands[best], cands[a]
	}
	used := make([]bool, n)
	obs := false
	for _, c := range cands {
		if used[c.i] || (c.j >= 0 && used[c.j]) {
			continue
		}
		if c.info.dist == math.MaxFloat64 {
			continue
		}
		used[c.i] = true
		if c.j >= 0 {
			used[c.j] = true
		}
		if c.info.obs {
			obs = !obs
		}
	}
	return obs
}

// pairwise runs Dijkstra from every flagged detector.
func (g *Graph) pairwise(flagged []int32) (pair [][]pathInfo, bound []pathInfo) {
	n := len(flagged)
	pair = make([][]pathInfo, n)
	bound = make([]pathInfo, n)
	for i, src := range flagged {
		dists, b := g.dijkstra(src)
		row := make([]pathInfo, n)
		for j, dst := range flagged {
			row[j] = dists[dst]
		}
		pair[i] = row
		bound[i] = b
	}
	return pair, bound
}

// Exact is a minimum-weight perfect matching decoder (each detector matches
// another or the boundary) solved by bitmask dynamic programming. It is
// exponential in the syndrome size and exists to validate the union-find
// and greedy decoders on small instances.
type Exact struct {
	g   *Graph
	max int
}

// NewExact builds the exact decoder; syndromes larger than maxDefects fall
// back to greedy.
func NewExact(g *Graph, maxDefects int) *Exact { return &Exact{g, maxDefects} }

var _ sim.Decoder = (*Exact)(nil)

// DecodeToObs implements sim.Decoder.
func (d *Exact) DecodeToObs(flagged []int32) bool {
	n := len(flagged)
	if n == 0 {
		return false
	}
	if n > d.max {
		return NewGreedy(d.g).DecodeToObs(flagged)
	}
	pair, bound := d.g.pairwise(flagged)
	const inf = math.MaxFloat64
	size := 1 << n
	cost := make([]float64, size)
	obs := make([]bool, size)
	for s := 1; s < size; s++ {
		cost[s] = inf
	}
	for s := 1; s < size; s++ {
		// Lowest set bit must be matched.
		i := 0
		for s&(1<<i) == 0 {
			i++
		}
		rest := s &^ (1 << i)
		// Option: boundary.
		if bound[i].dist < inf && cost[rest] < inf {
			c := cost[rest] + bound[i].dist
			if c < cost[s] {
				cost[s] = c
				obs[s] = obs[rest] != bound[i].obs
			}
		}
		// Option: pair with j.
		for j := i + 1; j < n; j++ {
			if s&(1<<j) == 0 {
				continue
			}
			prev := rest &^ (1 << j)
			if pair[i][j].dist < inf && cost[prev] < inf {
				c := cost[prev] + pair[i][j].dist
				if c < cost[s] {
					cost[s] = c
					obs[s] = obs[prev] != pair[i][j].obs
				}
			}
		}
	}
	return obs[size-1]
}
