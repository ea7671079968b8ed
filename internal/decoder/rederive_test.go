package decoder

import (
	"fmt"
	"math"
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
// equivalence contract against the one-pass oracle refNewGraph: for random
// site-rate overlays, both NewGraph of the patched DEM and the graph
// GraphFrom folds from the nominal template's merge skeleton are identical
// to it — edges, weights, observable flags, adjacency, free logical mass,
// clamp and drop counts — and decode corrections over sampled syndromes are
// bit identical.
func TestRederiveMatchesNewGraph(t *testing.T) {
	c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, 5))
	nominal := noise.Uniform(1e-3)
	base, err := sim.BuildDEM(c, nominal, 5, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := NewGraph(base)
	graphsIdentical(t, tmpl, refNewGraph(base), "nominal")
	if tmpl.skel == nil {
		t.Fatal("nominal graph kept no merge skeleton")
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
		want := refNewGraph(patched)
		graphsIdentical(t, NewGraph(patched), want, "built")
		got := GraphFrom(patched, base, tmpl)
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

// FuzzGraphMatchesReference draws a fresh d=3 or d=5 code or a d=5 code
// with a data qubit removed (super-stabilizers), a nominal rate, a round
// count and a basis, and patches the nominal DEM with overlays whose rates
// run from 2p to ½ and above, so edges clamp, and on to 16, where merged
// probabilities can turn non-positive and edges drop. NewGraph of every
// patched DEM, and GraphFrom of it from the nominal's graph, must equal
// refNewGraph field by field; so must NewGraph of the nominal.
func FuzzGraphMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var c *code.Code
		switch rng.Intn(3) {
		case 0:
			c = code.FromPatch(lattice.NewPatch(lattice.Coord{}, 3))
		case 1:
			c = code.FromPatch(lattice.NewPatch(lattice.Coord{}, 5))
		default:
			c = removedDataQubit(t, 5, lattice.Coord{Row: 5, Col: 5})
		}
		p := 1e-3 * float64(1+rng.Intn(8))
		nominal := noise.Uniform(p)
		if rng.Intn(2) == 0 {
			nominal = nominal.WithCorrelated(p / 4)
		}
		basis := lattice.ZCheck
		if rng.Intn(2) == 0 {
			basis = lattice.XCheck
		}
		base, err := sim.BuildDEM(c, nominal, 2+rng.Intn(5), basis)
		if err != nil {
			t.Fatal(err)
		}
		tmpl := NewGraph(base)
		graphsIdentical(t, tmpl, refNewGraph(base), "nominal")
		sites := append(c.DataQubits(), c.SyndromeQubits()...)
		pt := &sim.Patcher{}
		for step := 0; step < 4; step++ {
			overlay := map[lattice.Coord]float64{}
			for i := 0; i < 1+rng.Intn(6); i++ {
				r := math.Ldexp(p, 1+rng.Intn(6))
				switch rng.Intn(6) {
				case 0:
					r = 0.5
				case 1:
					r = 0.5 + rng.Float64()/2
				case 2:
					r = 1 + 15*rng.Float64()
				}
				overlay[sites[rng.Intn(len(sites))]] = r
			}
			patched, ok := pt.Patch(base, nominal.WithSiteRates(overlay))
			if !ok {
				t.Fatal("patch refused")
			}
			ctx := fmt.Sprintf("step %d", step)
			want := refNewGraph(patched)
			graphsIdentical(t, NewGraph(patched), want, ctx+"/built")
			graphsIdentical(t, GraphFrom(patched, base, tmpl), want, ctx+"/folded")
		}
	})
}

// TestGraphFrom pins the non-caching derivation the trajectory table uses:
// a DEM patched from base gets base's skeleton folded (one rederive, no
// full build), base itself gets base's graph back, and a DEM of another
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
