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

// graphsIdentical asserts every consumer-visible field matches bit for bit,
// and that got kept its merge skeleton exactly when nothing dropped.
func graphsIdentical(t *testing.T, got, want *Graph, ctx string) {
	t.Helper()
	if (got.skel != nil) != (want.Dropped == 0) {
		t.Fatalf("%s: skeleton kept %v with %d dropped edges", ctx, got.skel != nil, want.Dropped)
	}
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
// site-rate overlays, NewGraph of the patched DEM, GraphFrom from the
// nominal's graph and GraphFrom from the previous variant's graph (a chain
// base → v1 → v2 …) are identical to it — edges, weights, observable
// flags, adjacency, free logical mass, clamp and drop counts — and decode
// corrections over sampled syndromes are bit identical. The schedule makes
// every refold case happen: a site lifted to ¾ clamps edges that the next
// variant unclamps, a site at 16 turns merged probabilities negative so a
// refolded edge drops and the full fold answers, and every sixth variant
// repeats the previous model, a fresh DEM with no changed mechanism.
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
	prev, prevGraph := base, tmpl
	var overlay map[lattice.Coord]float64
	var rose, fell, repeats, fallbacks int
	for trial := 0; trial < 24; trial++ {
		if trial%6 != 5 {
			overlay = map[lattice.Coord]float64{}
			for i := 0; i < 1+rng.Intn(5); i++ {
				mult := float64(int64(2) << rng.Intn(6))
				r := mult * 1e-3
				if r > 0.45 {
					r = 0.45
				}
				overlay[sites[rng.Intn(len(sites))]] = r
			}
			switch trial % 6 {
			case 1:
				overlay[sites[rng.Intn(len(sites))]] = 0.75
			case 3:
				overlay[sites[rng.Intn(len(sites))]] = 16
			}
		}
		variant := nominal.WithSiteRates(overlay)
		patched, ok := pt.Patch(base, variant)
		if !ok {
			t.Fatal("patch refused")
		}
		ctx := fmt.Sprintf("trial %d", trial)
		want := refNewGraph(patched)
		graphsIdentical(t, NewGraph(patched), want, ctx+"/built")
		got := GraphFrom(patched, base, tmpl)
		graphsIdentical(t, got, want, ctx+"/rederived")
		chained := GraphFrom(patched, prev, prevGraph)
		graphsIdentical(t, chained, want, ctx+"/chained")
		if prevGraph.skel != nil && sim.SamePatchCore(patched, prev) {
			switch {
			case want.Dropped > 0:
				fallbacks++
			case slices.Equal(patched.P, prev.P):
				repeats++
			case want.Clamped > prevGraph.Clamped:
				rose++
			case want.Clamped < prevGraph.Clamped:
				fell++
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		// Decode corrections must be bit-identical between the graphs.
		ufGot, ufChained, ufWant := NewUnionFind(got), NewUnionFind(chained), NewUnionFind(want)
		sampler := sim.NewSampler(patched)
		shotRNG := rand.New(rand.NewSource(int64(100 + trial)))
		for shot := 0; shot < 50; shot++ {
			flagged, _ := sampler.Shot(shotRNG)
			a := slices.Clone(ufGot.DecodeToEdges(flagged))
			b := slices.Clone(ufChained.DecodeToEdges(flagged))
			w := ufWant.DecodeToEdges(flagged)
			if !slices.Equal(a, w) || !slices.Equal(b, w) {
				t.Fatalf("trial %d shot %d: corrections diverge: %v and %v vs %v", trial, shot, a, b, w)
			}
		}
		prev, prevGraph = patched, chained
	}
	if rose == 0 || fell == 0 || repeats == 0 || fallbacks == 0 {
		t.Errorf("chained refolds: clamps rose %d, fell %d, repeats %d, drop fallbacks %d; want each case at least once",
			rose, fell, repeats, fallbacks)
	}
}

// FuzzGraphMatchesReference draws a fresh d=3 or d=5 code or a d=5 code
// with a data qubit removed (super-stabilizers), a nominal rate, a round
// count and a basis, and patches the nominal DEM with overlays whose rates
// run from 2p to ½ and above, so edges clamp, and on to 16, where merged
// probabilities can turn non-positive and edges drop. NewGraph of every
// patched DEM, GraphFrom of it from the nominal's graph, and GraphFrom of
// it from the previous step's graph (a chain base → v1 → v2 …, whose
// clamps come and go) must equal refNewGraph field by field; so must
// NewGraph of the nominal. Step 2 repeats step 1's model, a fresh DEM with
// no changed mechanism. The seeds from 5 on make a variant drop a refolded
// edge, so the refold's fallback to the full fold runs in the seed corpus.
func FuzzGraphMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 5, 7, 8, 9, 11} {
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
		prev, prevGraph := base, tmpl
		var model *noise.Model
		for step := 0; step < 5; step++ {
			if step != 2 {
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
				model = nominal.WithSiteRates(overlay)
			}
			patched, ok := pt.Patch(base, model)
			if !ok {
				t.Fatal("patch refused")
			}
			ctx := fmt.Sprintf("step %d", step)
			want := refNewGraph(patched)
			graphsIdentical(t, NewGraph(patched), want, ctx+"/built")
			graphsIdentical(t, GraphFrom(patched, base, tmpl), want, ctx+"/folded")
			chained := GraphFrom(patched, prev, prevGraph)
			graphsIdentical(t, chained, want, ctx+"/chained")
			prev, prevGraph = patched, chained
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
