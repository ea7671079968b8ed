package decoder

// This file pins the flat epoch-stamped union-find against the map-based
// implementation it replaced. refUnionFind is a faithful copy of the
// pre-refactor decoder (maps for active roots, frontier multiplicities,
// peeling incidence/visitation, closure sort for frontier ordering); the
// differential tests require bit-identical corrections and failure counts
// on a seeded corpus spanning clean and defect-laden noise models. Any
// divergence means the refactor changed decoding behavior, not just speed.

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/sim"
)

type refUnionFind struct {
	g *Graph

	parent   []int32
	parity   []int8
	bound    []bool
	growth   []float64
	grown    []bool
	absorbed []bool
	flag     []bool

	touched []int32
	edges   []int32
}

func newRefUnionFind(g *Graph) *refUnionFind {
	n := g.NumDets
	u := &refUnionFind{
		g:        g,
		parent:   make([]int32, n),
		parity:   make([]int8, n),
		bound:    make([]bool, n),
		growth:   make([]float64, len(g.Edges)),
		grown:    make([]bool, len(g.Edges)),
		absorbed: make([]bool, n),
		flag:     make([]bool, n),
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

func (u *refUnionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *refUnionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	u.parent[rb] = ra
	u.parity[ra] = (u.parity[ra] + u.parity[rb]) % 2
	u.bound[ra] = u.bound[ra] || u.bound[rb]
}

func (u *refUnionFind) absorb(n int32) {
	if !u.absorbed[n] {
		u.absorbed[n] = true
		u.touched = append(u.touched, n)
	}
}

func (u *refUnionFind) DecodeToObs(flagged []int32) bool {
	edgeSet := u.DecodeToEdges(flagged)
	obs := false
	for _, ei := range edgeSet {
		if u.g.Edges[ei].Obs {
			obs = !obs
		}
	}
	return obs
}

func (u *refUnionFind) DecodeToEdges(flagged []int32) []int32 {
	if len(flagged) == 0 {
		return nil
	}
	defer u.reset()
	for _, d := range flagged {
		u.absorb(d)
		u.parity[d] = 1
	}

	for iter := 0; ; iter++ {
		roots := u.activeRoots()
		if len(roots) == 0 || iter > 4*len(u.g.Edges) {
			break
		}
		isActive := map[int32]bool{}
		for _, r := range roots {
			isActive[r] = true
		}
		type frontierEdge struct {
			ei    int32
			sides float64
		}
		seen := map[int32]float64{}
		for _, n := range u.touched {
			if !isActive[u.find(n)] {
				continue
			}
			for _, ei := range u.g.Adj(n) {
				if u.grown[ei] {
					continue
				}
				seen[ei]++
			}
		}
		if len(seen) == 0 {
			break
		}
		var frontier []frontierEdge
		minStep := -1.0
		for ei, sides := range seen {
			if sides > 2 {
				sides = 2
			}
			rem := (u.g.Edges[ei].Weight - u.growth[ei]) / sides
			if minStep < 0 || rem < minStep {
				minStep = rem
			}
			frontier = append(frontier, frontierEdge{ei, sides})
		}
		sort.Slice(frontier, func(i, j int) bool { return frontier[i].ei < frontier[j].ei })
		for _, fe := range frontier {
			if u.growth[fe.ei] == 0 {
				u.edges = append(u.edges, fe.ei)
			}
			u.growth[fe.ei] += minStep * fe.sides
			if u.growth[fe.ei] >= u.g.Edges[fe.ei].Weight-1e-12 && !u.grown[fe.ei] {
				u.grown[fe.ei] = true
				e := u.g.Edges[fe.ei]
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
	return u.peel(flagged)
}

func (u *refUnionFind) activeRoots() []int32 {
	seen := map[int32]bool{}
	var roots []int32
	for _, n := range u.touched {
		r := u.find(n)
		if seen[r] {
			continue
		}
		seen[r] = true
		if u.parity[r] == 1 && !u.bound[r] {
			roots = append(roots, r)
		}
	}
	return roots
}

func (u *refUnionFind) peel(flagged []int32) []int32 {
	incident := map[int32][]int32{}
	for _, ei := range u.edges {
		if !u.grown[ei] {
			continue
		}
		e := u.g.Edges[ei]
		incident[e.U] = append(incident[e.U], ei)
		if e.V != Boundary {
			incident[e.V] = append(incident[e.V], ei)
		}
	}
	visited := map[int32]bool{}
	parentEdge := map[int32]int32{}
	var order []int32
	bfs := func(seeds []int32) {
		queue := seeds
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			order = append(order, n)
			for _, ei := range incident[n] {
				e := u.g.Edges[ei]
				other := e.U
				if other == n {
					other = e.V
				}
				if other == Boundary || visited[other] {
					continue
				}
				visited[other] = true
				parentEdge[other] = ei
				queue = append(queue, other)
			}
		}
	}
	var seeds []int32
	for _, ei := range u.edges {
		e := u.g.Edges[ei]
		if u.grown[ei] && e.V == Boundary && !visited[e.U] {
			visited[e.U] = true
			parentEdge[e.U] = ei
			seeds = append(seeds, e.U)
		}
	}
	bfs(seeds)
	for _, n := range u.touched {
		if !visited[n] {
			visited[n] = true
			parentEdge[n] = -1
			bfs([]int32{n})
		}
	}
	for _, d := range flagged {
		u.flag[d] = true
	}
	var correction []int32
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if !u.flag[n] {
			continue
		}
		ei := parentEdge[n]
		if ei < 0 {
			continue
		}
		correction = append(correction, ei)
		u.flag[n] = false
		e := u.g.Edges[ei]
		other := e.U
		if other == n {
			other = e.V
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
	return correction
}

func (u *refUnionFind) reset() {
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

// differentialCorpus builds a seeded shot corpus over one DEM.
func differentialCorpus(t *testing.T, dem *sim.DEM, shots int, seed int64) [][]int32 {
	t.Helper()
	sampler := sim.NewSampler(dem)
	rng := rand.New(rand.NewSource(seed))
	corpus := make([][]int32, shots)
	for i := range corpus {
		flagged, _ := sampler.Shot(rng)
		corpus[i] = slices.Clone(flagged)
	}
	return corpus
}

// TestUnionFindMatchesReference runs the flat decoder and the pre-refactor
// map-based reference over seeded corpora and requires bit-identical
// corrections (same edges in the same order) and identical observable
// predictions, shot for shot. The corpora span the benchmark's memory point
// (d=9, p=5e-3, 9 rounds) and a deformed code whose super-stabilizers give
// the graph irregular adjacency. One more decoder is shared by every
// corpus: it is rebound to each corpus's graph in turn (small → large →
// small, then shot by shot round-robin) and must match the reference on
// every shot too.
func TestUnionFindMatchesReference(t *testing.T) {
	configs := []struct {
		name       string
		d, rounds  int
		p          float64
		shots      int
		defectSite *lattice.Coord
		removed    bool // drop the data qubit at defectSite instead of raising its rate
	}{
		{name: "d3-low-p", d: 3, rounds: 4, p: 2e-3, shots: 400},
		{name: "d5-mid-p", d: 5, rounds: 5, p: 8e-3, shots: 400},
		{name: "d5-high-p", d: 5, rounds: 4, p: 2e-2, shots: 300},
		{name: "d5-defect", d: 5, rounds: 4, p: 1e-3, shots: 300,
			defectSite: &lattice.Coord{Row: 5, Col: 5}},
		{name: "d9-memory", d: 9, rounds: 9, p: 5e-3, shots: 400},
		{name: "d5-super-stab", d: 5, rounds: 5, p: 8e-3, shots: 400,
			defectSite: &lattice.Coord{Row: 5, Col: 5}, removed: true},
	}
	// What the rebound decoder must reproduce, per corpus.
	type graphRun struct {
		g      *Graph
		corpus [][]int32
		want   [][]int32
	}
	runs := make([]graphRun, len(configs))
	shared := &UnionFind{}
	for ci, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, cfg.d))
			model := noise.Uniform(cfg.p)
			switch {
			case cfg.removed:
				c = removedDataQubit(t, cfg.d, *cfg.defectSite)
			case cfg.defectSite != nil:
				// Defect-laden weights exercise irregular cluster growth
				// steps (the fuzz-corpus regime of heavy local noise).
				model = model.WithDefects([]lattice.Coord{*cfg.defectSite}, noise.DefaultDefectRate)
			}
			dem, err := sim.BuildDEM(c, model, cfg.rounds, lattice.ZCheck)
			if err != nil {
				t.Fatal(err)
			}
			g := NewGraph(dem)
			flat := NewUnionFind(g)
			shared.Rebind(g)
			ref := newRefUnionFind(g)
			corpus := differentialCorpus(t, dem, cfg.shots, int64(1000+ci))
			runs[ci] = graphRun{g: g, corpus: corpus}
			flatFails, refFails := 0, 0
			for i, flagged := range corpus {
				got := slices.Clone(flat.DecodeToEdges(flagged))
				want := ref.DecodeToEdges(flagged)
				if !slices.Equal(got, want) {
					t.Fatalf("shot %d: corrections diverge\nflat: %v\nref:  %v\nflagged: %v",
						i, got, want, flagged)
				}
				requireFrontierClear(t, flat, i)
				if rebound := shared.DecodeToEdges(flagged); !slices.Equal(rebound, want) {
					t.Fatalf("shot %d: rebound decoder diverges\nrebound: %v\nref:     %v", i, rebound, want)
				}
				runs[ci].want = append(runs[ci].want, want)
				gObs, wObs := obsOf(g, got), obsOf(g, want)
				if gObs != wObs {
					t.Fatalf("shot %d: observable prediction diverges", i)
				}
				if gObs {
					flatFails++
				}
				if wObs {
					refFails++
				}
			}
			if flatFails != refFails {
				t.Fatalf("failure counts diverge: flat %d vs ref %d", flatFails, refFails)
			}
			if flat.Truncations != 0 {
				t.Fatalf("flat decoder reported %d truncations on a well-formed graph", flat.Truncations)
			}
		})
	}
	if t.Failed() {
		return
	}
	// Round-robin: every shot index visits the graphs forward and back, so
	// consecutive decodes switch graph and size on every shot.
	var order []int
	for ci := range runs {
		order = append(order, ci)
	}
	for ci := len(runs) - 2; ci > 0; ci-- {
		order = append(order, ci)
	}
	for i := 0; ; i++ {
		decoded := false
		for _, ci := range order {
			r := runs[ci]
			if i >= len(r.corpus) {
				continue
			}
			decoded = true
			shared.Rebind(r.g)
			if got := shared.DecodeToEdges(r.corpus[i]); !slices.Equal(got, r.want[i]) {
				t.Fatalf("%s shot %d: rebound decoder diverges\nrebound: %v\nref:     %v",
					configs[ci].name, i, got, r.want[i])
			}
			requireFrontierClear(t, shared, i)
		}
		if !decoded {
			break
		}
	}
	if shared.Truncations != 0 {
		t.Fatalf("rebound decoder reported %d truncations on well-formed graphs", shared.Truncations)
	}
}

// FuzzUnionFindMatchesReference decodes a seeded corpus on a fresh
// distance-d memory DEM at rate p with the flat decoder and the reference:
// corrections must be equal shot for shot (same edges, same order), the
// frontier bitset must be clear after every shot, and the flat decoder's
// Truncations must count exactly the shots whose reference correction
// leaves part of the syndrome unannihilated. A second decoder is rebound
// on every shot across three graphs — a d=3 graph, the distance-d graph
// and another d=3 graph (small → large → small) — and must match the
// reference on each, truncations included.
func FuzzUnionFindMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), 2e-3)
	f.Add(int64(2), uint8(1), 8e-3)
	f.Add(int64(3), uint8(2), 5e-3)
	f.Add(int64(4), uint8(1), 2e-2)
	f.Fuzz(func(t *testing.T, seed int64, d uint8, p float64) {
		dist := 3 + 2*int(d%3) // 3, 5 or 7
		p = math.Abs(p)
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Skip("rate must be finite")
		}
		if p > 2e-2 {
			p = math.Mod(p, 2e-2)
		}
		if p == 0 {
			t.Skip("rate must be positive")
		}
		type leg struct {
			g      *Graph
			ref    *refUnionFind
			corpus [][]int32
		}
		var legs []leg
		for i, dd := range []int{3, dist, 3} {
			c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, dd))
			dem, err := sim.BuildDEM(c, noise.Uniform(p), dd+i, lattice.ZCheck)
			if err != nil {
				t.Fatal(err)
			}
			g := NewGraph(dem)
			legs = append(legs, leg{g, newRefUnionFind(g), differentialCorpus(t, dem, 100, seed+int64(i))})
		}
		g := legs[1].g
		flat := NewUnionFind(g)
		ref := newRefUnionFind(g)
		refTruncations := 0
		for i, flagged := range legs[1].corpus {
			got := slices.Clone(flat.DecodeToEdges(flagged))
			want := ref.DecodeToEdges(flagged)
			if !slices.Equal(got, want) {
				t.Fatalf("d=%d p=%g shot %d: corrections diverge\nflat: %v\nref:  %v\nflagged: %v",
					dist, p, i, got, want, flagged)
			}
			requireFrontierClear(t, flat, i)
			if !annihilates(g, flagged, want) {
				refTruncations++
			}
		}
		if flat.Truncations != refTruncations {
			t.Fatalf("d=%d p=%g: flat counted %d truncations, reference left %d syndromes unannihilated",
				dist, p, flat.Truncations, refTruncations)
		}

		shared := NewUnionFind(legs[0].g)
		sharedTruncations := 0
		for i := range legs[0].corpus {
			for li, l := range legs {
				flagged := l.corpus[i]
				shared.Rebind(l.g)
				got := slices.Clone(shared.DecodeToEdges(flagged))
				want := l.ref.DecodeToEdges(flagged)
				if !slices.Equal(got, want) {
					t.Fatalf("graph %d (d=%d p=%g) shot %d: rebound decoder diverges\nrebound: %v\nref:     %v",
						li, dist, p, i, got, want)
				}
				requireFrontierClear(t, shared, i)
				if !annihilates(l.g, flagged, want) {
					sharedTruncations++
				}
			}
		}
		if shared.Truncations != sharedTruncations {
			t.Fatalf("d=%d p=%g: rebound decoder counted %d truncations, reference left %d syndromes unannihilated",
				dist, p, shared.Truncations, sharedTruncations)
		}
	})
}

// requireFrontierClear fails unless the decoder's frontier bitset is all
// zero, as every growth iteration must leave it.
func requireFrontierClear(t *testing.T, u *UnionFind, shot int) {
	t.Helper()
	for w, word := range u.frontierBits {
		if word != 0 {
			t.Fatalf("shot %d: frontier bitset word %d left at %#x", shot, w, word)
		}
	}
}

// annihilates reports whether the correction's boundary, ignoring the
// virtual boundary node, is exactly the flagged detector set.
func annihilates(g *Graph, flagged, correction []int32) bool {
	odd := map[int32]bool{}
	for _, d := range flagged {
		odd[d] = !odd[d]
	}
	for _, ei := range correction {
		e := g.Edges[ei]
		odd[e.U] = !odd[e.U]
		if e.V != Boundary {
			odd[e.V] = !odd[e.V]
		}
	}
	for _, v := range odd {
		if v {
			return false
		}
	}
	return true
}

func obsOf(g *Graph, correction []int32) bool {
	obs := false
	for _, ei := range correction {
		if g.Edges[ei].Obs {
			obs = !obs
		}
	}
	return obs
}
