package decoder

import (
	"math/rand"
	"slices"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/sim"
)

// TestDecodeZeroAllocs enforces the hot-path allocation contract: decoding
// performs zero heap allocations per shot. Scratch is preallocated at
// worst-case bounds in NewUnionFind, so this holds from the first call,
// not just at steady state. A decoder rebound between graphs no larger
// than the largest it has seen allocates nothing either, rebind included.
func TestDecodeZeroAllocs(t *testing.T) {
	corpusFor := func(dem *sim.DEM, seed int64) [][]int32 {
		sampler := sim.NewSampler(dem)
		rng := rand.New(rand.NewSource(seed))
		corpus := make([][]int32, 64)
		for i := range corpus {
			flagged, _ := sampler.Shot(rng)
			corpus[i] = slices.Clone(flagged)
		}
		return corpus
	}
	dem := demFor(t, 5, 5, 5e-3)
	g := NewGraph(dem)
	uf := NewUnionFind(g)
	corpus := corpusFor(dem, 17)
	sink := false
	allocs := testing.AllocsPerRun(100, func() {
		for _, flagged := range corpus {
			sink = sink != uf.DecodeToObs(flagged)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeToObs allocates %.1f per %d-shot run, want 0", allocs, len(corpus))
	}

	small := demFor(t, 3, 4, 5e-3)
	gSmall := NewGraph(small)
	smallCorpus := corpusFor(small, 19)
	allocs = testing.AllocsPerRun(100, func() {
		for i := range corpus {
			uf.Rebind(gSmall)
			sink = sink != uf.DecodeToObs(smallCorpus[i])
			uf.Rebind(g)
			sink = sink != uf.DecodeToObs(corpus[i])
		}
	})
	_ = sink
	if allocs != 0 {
		t.Errorf("rebind plus DecodeToObs allocates %.1f per %d-shot run, want 0", allocs, 2*len(corpus))
	}
}

// graphFromCase returns a fresh d=5 code's 8-round memory-Z DEM, its
// graph, and the DEM patched from it under a six-site overlay at 4–16× the
// base rate, the shape BenchmarkDEMPatch times.
func graphFromCase(tb testing.TB) (patched, base *sim.DEM, baseGraph *Graph) {
	c := code.FromPatch(lattice.NewPatch(lattice.Coord{}, 5))
	nominal := noise.Uniform(1e-3)
	base, err := sim.BuildDEM(c, nominal, 8, lattice.ZCheck)
	if err != nil {
		tb.Fatal(err)
	}
	sites := append(c.DataQubits(), c.SyndromeQubits()...)
	rates := map[lattice.Coord]float64{}
	for i, q := range sites[10:16] {
		rates[q] = []float64{4e-3, 8e-3, 16e-3}[i%3]
	}
	patched, ok := (&sim.Patcher{}).Patch(base, nominal.WithSiteRates(siteRates(rates)))
	if !ok {
		tb.Fatal("patch refused")
	}
	return patched, base, NewGraph(base)
}

// TestGraphFromAllocs pins a same-core GraphFrom at two allocations, the
// graph header and its edge array: the refold shares the skeleton and the
// adjacency, and marks nothing.
func TestGraphFromAllocs(t *testing.T) {
	patched, base, bg := graphFromCase(t)
	if g := GraphFrom(patched, base, bg); g.skel != bg.skel {
		t.Fatal("the variant's graph was not refolded from the base's skeleton")
	}
	allocs := testing.AllocsPerRun(100, func() {
		benchGraph = GraphFrom(patched, base, bg)
	})
	if allocs > 2 {
		t.Errorf("same-core GraphFrom does %.1f allocs, want <= 2 (graph + edges)", allocs)
	}
}

var benchGraph *Graph

// newGraphDEM returns a fresh d=5 code's 6-round memory-Z DEM.
func newGraphDEM(tb testing.TB) *sim.DEM {
	c := code.FromPatch(lattice.NewPatch(lattice.Coord{}, 5))
	dem, err := sim.BuildDEM(c, noise.Uniform(1e-3), 6, lattice.ZCheck)
	if err != nil {
		tb.Fatal(err)
	}
	return dem
}

// TestSharedGraphHitZeroAllocs pins that SharedGraph on a DEM whose graph
// it already built allocates nothing: the graph sits in the DEM's own
// slot, read through one atomic load. Every memory-experiment worker makes
// such a call for its decoder, and the trajectory engine one per pristine
// nominal it adopts.
func TestSharedGraphHitZeroAllocs(t *testing.T) {
	dem := demFor(t, 5, 5, 5e-3)
	g := SharedGraph(dem)
	if n := testing.AllocsPerRun(1000, func() {
		if SharedGraph(dem) != g {
			t.Fatal("SharedGraph returned another graph for the same DEM")
		}
	}); n != 0 {
		t.Errorf("a SharedGraph hit allocates %v per call", n)
	}
}

// TestNewGraphAllocs pins a full NewGraph of newGraphDEM's DEM at 10
// allocations: the graph header and edge array; the skeleton header, its
// endpoints, edge offsets and contributions; the adjacency offsets, list
// and fill cursor; and the detector-pair list the merge sorts. A map, or a
// slice per edge, fails.
func TestNewGraphAllocs(t *testing.T) {
	dem := newGraphDEM(t)
	allocs := testing.AllocsPerRun(20, func() {
		benchGraph = NewGraph(dem)
	})
	if allocs > 10 {
		t.Errorf("NewGraph does %.1f allocs at d=5 over 6 rounds, want <= 10", allocs)
	}
}

// BenchmarkNewGraph times one full NewGraph of newGraphDEM's DEM: the
// merge skeleton, its fold and the adjacency.
func BenchmarkNewGraph(b *testing.B) {
	dem := newGraphDEM(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGraph = NewGraph(dem)
	}
}

// BenchmarkGraphFrom times one GraphFrom of graphFromCase's variant from
// its base's graph: the copied edge array plus the refold of every edge
// the changed mechanisms feed.
func BenchmarkGraphFrom(b *testing.B) {
	patched, base, bg := graphFromCase(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGraph = GraphFrom(patched, base, bg)
	}
}

// TestDecodeToEdgesScratchReuse documents the ownership contract: the
// slice returned by DecodeToEdges is invalidated by the next decode.
func TestDecodeToEdgesScratchReuse(t *testing.T) {
	dem := demFor(t, 5, 4, 1e-2)
	g := NewGraph(dem)
	uf := NewUnionFind(g)
	sampler := sim.NewSampler(dem)
	rng := rand.New(rand.NewSource(23))
	var first, flagged1 []int32
	for len(first) == 0 {
		f, _ := sampler.Shot(rng)
		flagged1 = slices.Clone(f)
		first = uf.DecodeToEdges(flagged1)
	}
	snapshot := slices.Clone(first)
	for i := 0; i < 32; i++ {
		f, _ := sampler.Shot(rng)
		uf.DecodeToEdges(f)
	}
	again := uf.DecodeToEdges(flagged1)
	if !slices.Equal(again, snapshot) {
		t.Fatalf("decode of identical syndrome changed: %v vs %v", again, snapshot)
	}
}

// TestTruncationSurfaced is the regression test for the silent-truncation
// fix: a syndrome the decoder cannot annihilate (here, a flagged detector
// with no incident edges) must be counted in Truncations rather than
// silently returning a partial correction.
func TestTruncationSurfaced(t *testing.T) {
	// Detector 0 has a boundary edge; detector 1 is isolated (as can
	// happen on a malformed or degenerate decoding graph).
	g := &Graph{
		NumDets: 2,
		Edges:   []Edge{{U: 0, V: Boundary, Weight: 1, P: 0.01}},
	}
	g.buildAdj()
	uf := NewUnionFind(g)

	// A decodable syndrome must not count as truncated.
	corr := uf.DecodeToEdges([]int32{0})
	if len(corr) != 1 || corr[0] != 0 {
		t.Fatalf("decodable syndrome: correction %v, want [0]", corr)
	}
	if uf.Truncations != 0 {
		t.Fatalf("decodable syndrome counted as truncation")
	}

	// The isolated detector's flag can never be annihilated.
	uf.DecodeToEdges([]int32{1})
	if uf.Truncations != 1 {
		t.Fatalf("Truncations = %d after undecodable syndrome, want 1", uf.Truncations)
	}

	// Both flagged: detector 0 drains into the boundary, detector 1
	// truncates again; the partial correction still covers detector 0.
	corr = uf.DecodeToEdges([]int32{0, 1})
	if len(corr) != 1 || corr[0] != 0 {
		t.Fatalf("partial correction %v, want [0]", corr)
	}
	if uf.Truncations != 2 {
		t.Fatalf("Truncations = %d, want 2", uf.Truncations)
	}

	// Decoder state must be fully reset despite the truncations.
	if uf.DecodeToObs(nil) {
		t.Fatal("empty syndrome must predict no flip")
	}
}
