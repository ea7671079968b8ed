package decoder

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/sim"
)

// graphsIdentical asserts every consumer-visible field matches bit for bit.
func graphsIdentical(t *testing.T, got, want *Graph, ctx string) {
	t.Helper()
	if got.NumDets != want.NumDets || got.Decomposed != want.Decomposed ||
		got.Clamped != want.Clamped || got.Dropped != want.Dropped {
		t.Fatalf("%s: header fields differ: got %+v want %+v", ctx, got, want)
	}
	if got.FreeLogicalP != want.FreeLogicalP {
		t.Fatalf("%s: FreeLogicalP = %v, want %v", ctx, got.FreeLogicalP, want.FreeLogicalP)
	}
	if !reflect.DeepEqual(got.Edges, want.Edges) {
		if len(got.Edges) != len(want.Edges) {
			t.Fatalf("%s: %d edges, want %d", ctx, len(got.Edges), len(want.Edges))
		}
		for i := range got.Edges {
			if got.Edges[i] != want.Edges[i] {
				t.Fatalf("%s: edge %d = %+v, want %+v", ctx, i, got.Edges[i], want.Edges[i])
			}
		}
	}
	if !reflect.DeepEqual(got.adjOff, want.adjOff) || !reflect.DeepEqual(got.adjList, want.adjList) {
		t.Fatalf("%s: adjacency differs", ctx)
	}
}

// TestRederiveMatchesNewGraph pins the decoder half of the incremental
// equivalence contract: for random site-rate overlays, the graph rederived
// from the nominal template's merge skeleton is identical — edges, weights,
// observable flags, adjacency, free logical mass — to a fresh NewGraph of
// the patched DEM, and decode corrections over sampled syndromes are bit
// identical.
func TestRederiveMatchesNewGraph(t *testing.T) {
	c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, 5))
	nominal := noise.Uniform(1e-3)
	base, err := sim.BuildDEM(c, nominal, 5, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := NewGraph(base)
	if tmpl.skel == nil {
		t.Fatal("nominal graph recorded no merge skeleton")
	}
	sites := append([]lattice.Coord(nil), c.DataQubits()...)
	sites = append(sites, c.SyndromeQubits()...)
	rng := rand.New(rand.NewSource(23))
	pt := &sim.Patcher{}
	for trial := 0; trial < 20; trial++ {
		overlay := map[lattice.Coord]float64{}
		for i := 0; i < 1+rng.Intn(5); i++ {
			mult := float64(int64(2) << rng.Intn(6))
			r := mult * 1e-3
			if r > 0.45 {
				r = 0.45
			}
			overlay[sites[rng.Intn(len(sites))]] = r
		}
		variant := nominal.WithSiteRates(overlay)
		patched, ok := pt.Patch(base, variant)
		if !ok {
			t.Fatal("patch refused")
		}
		want := NewGraph(patched)
		got := tmpl.rederive(patched)
		if got == nil {
			t.Fatal("rederive bailed on a structurally identical DEM")
		}
		graphsIdentical(t, got, want, "rederived")
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		// Decode corrections must be bit-identical between the two graphs.
		ufGot, ufWant := NewUnionFind(got), NewUnionFind(want)
		sampler := sim.NewSampler(patched)
		shotRNG := rand.New(rand.NewSource(int64(100 + trial)))
		for shot := 0; shot < 50; shot++ {
			flagged, _ := sampler.Shot(shotRNG)
			a := slices.Clone(ufGot.DecodeToEdges(flagged))
			b := ufWant.DecodeToEdges(flagged)
			if !slices.Equal(a, b) {
				t.Fatalf("trial %d shot %d: corrections diverge: %v vs %v", trial, shot, a, b)
			}
		}
	}
}

// TestGraphFrom pins the non-caching derivation the trajectory table uses:
// a DEM patched from base gets base's graph replayed (one rederive, no full
// build), base itself gets base's graph back, and a DEM of another
// structure falls back to a full build. Every result equals NewGraph, and
// nothing enters the process-wide graph cache.
func TestGraphFrom(t *testing.T) {
	c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, 3))
	nominal := noise.Uniform(1e-3)
	base, err := sim.BuildDEM(c, nominal, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	bg := NewGraph(base)
	variant := nominal.WithSiteRates(map[lattice.Coord]float64{c.DataQubits()[0]: 8e-3})
	patched, ok := (&sim.Patcher{}).Patch(base, variant)
	if !ok {
		t.Fatal("patch refused")
	}
	built, err := sim.BuildDEM(c, variant, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	m0 := obsGraphCacheMisses.Value()
	r0, b0 := obsGraphRederives.Value(), obsGraphBuilds.Value()
	g := GraphFrom(patched, base, bg)
	if obsGraphRederives.Value() != r0+1 || obsGraphBuilds.Value() != b0 {
		t.Errorf("patched DEM: %d rederives, %d builds; want 1, 0",
			obsGraphRederives.Value()-r0, obsGraphBuilds.Value()-b0)
	}
	graphsIdentical(t, g, NewGraph(patched), "rederived variant")
	if GraphFrom(base, base, bg) != bg {
		t.Error("base itself did not get its own graph back")
	}
	r0 = obsGraphRederives.Value()
	graphsIdentical(t, GraphFrom(built, base, bg), NewGraph(built), "full-build fallback")
	if obsGraphRederives.Value() != r0 {
		t.Error("a DEM outside base's patch core was rederived")
	}
	if obsGraphCacheMisses.Value() != m0 {
		t.Error("GraphFrom touched the process-wide graph cache")
	}
}
