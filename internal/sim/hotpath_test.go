package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
)

// TestShotZeroAllocs enforces the sampler's allocation contract: Shot
// performs zero heap allocations per call. Scratch is preallocated at
// worst-case bounds in NewSampler, so this holds from the first shot.
func TestShotZeroAllocs(t *testing.T) {
	c := freshCode(t, 5)
	dem, err := BuildDEM(c, noise.Uniform(5e-3), 5, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(dem)
	rng := rand.New(rand.NewSource(31))
	sink := 0
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			flagged, _ := s.Shot(rng)
			sink += len(flagged)
		}
	})
	_ = sink
	if allocs != 0 {
		t.Errorf("Shot allocates %.1f per 16-shot run, want 0", allocs)
	}
}

// TestDEMCacheHitZeroAllocs pins that a DEM-cache hit on a model without
// site rates or defects allocates nothing: the key is the code's memoized
// ID, the round count, the basis and five rate bit patterns, with an empty
// site string. The trajectory engine makes such a lookup for the nominal
// model on every chunk.
func TestDEMCacheHitZeroAllocs(t *testing.T) {
	dc := NewDEMCache(0)
	model := noise.Uniform(1e-3).WithCorrelated(2e-4)
	for _, c := range []*code.Code{freshCode(t, 3), deformedCode(t)} {
		if _, err := dc.BuildDEM(c, model, 4, lattice.ZCheck); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(1000, func() {
			if _, _, err := dc.BuildDEMKeyed(c, model, 4, lattice.ZCheck); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("DEM-cache hit allocates %v per lookup", n)
		}
	}
}

// TestBuildDEMAllocs bounds a full build's allocations. The backward pass
// stores signatures as arena spans and merges them under reused key
// scratch, so allocations scale with the unique mechanisms (~470 here) and
// the circuit layout, not with the ~7.5k fault components a d=5, 8-round
// build folds; allocating per signature (the forward enumeration's ~22k)
// fails.
func TestBuildDEMAllocs(t *testing.T) {
	c := freshCode(t, 5)
	model := noise.Uniform(1e-3)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := BuildDEM(c, model, 8, lattice.ZCheck); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4000 {
		t.Errorf("BuildDEM allocates %.0f per d=5, 8-round build, want <= 4000", allocs)
	}
}

var benchDEM *DEM

// BenchmarkBuildDEM times one full build of a fresh code's memory-Z DEM
// with the backward pass ("new") and with the forward reference
// enumeration ("ref"), so one run gives the speed-up at each size.
func BenchmarkBuildDEM(b *testing.B) {
	for _, sz := range []struct{ d, rounds int }{{5, 8}, {9, 16}} {
		c := code.FromPatch(lattice.NewPatch(lattice.Coord{}, sz.d))
		model := noise.Uniform(1e-3)
		modelAt := func(int) *noise.Model { return model }
		builds := []struct {
			name  string
			build func() (*DEM, error)
		}{
			{"new", func() (*DEM, error) { return BuildDEM(c, model, sz.rounds, lattice.ZCheck) }},
			{"ref", func() (*DEM, error) {
				dem, _, err := refBuildDEM(c, modelAt, sz.rounds, lattice.ZCheck)
				return dem, err
			}},
		}
		for _, bd := range builds {
			b.Run(fmt.Sprintf("d%d-r%d/%s", sz.d, sz.rounds, bd.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dem, err := bd.build()
					if err != nil {
						b.Fatal(err)
					}
					benchDEM = dem
				}
			})
		}
	}
}

// BenchmarkDEMPatch times one Patcher.Patch of a fresh d=5 code's 8-round
// memory-Z DEM from its nominal base under a six-site overlay at 4–16×
// the base rate: the refold of every mechanism those sites feed, plus the
// copied probability vector.
func BenchmarkDEMPatch(b *testing.B) {
	c := code.FromPatch(lattice.NewPatch(lattice.Coord{}, 5))
	nominal := noise.Uniform(1e-3)
	base, err := BuildDEM(c, nominal, 8, lattice.ZCheck)
	if err != nil {
		b.Fatal(err)
	}
	sites := append(c.DataQubits(), c.SyndromeQubits()...)
	rates := map[lattice.Coord]float64{}
	for i, q := range sites[10:16] {
		rates[q] = []float64{4e-3, 8e-3, 16e-3}[i%3]
	}
	variant := nominal.WithSiteRates(rates)
	pt := &Patcher{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dem, ok := pt.Patch(base, variant)
		if !ok {
			b.Fatal("patch refused")
		}
		benchDEM = dem
	}
}

// TestShotScratchReuse documents the ownership contract: the slice
// returned by Shot is sampler-owned scratch, overwritten by the next call
// — and reusing the sampler must not change what is sampled.
func TestShotScratchReuse(t *testing.T) {
	c := freshCode(t, 3)
	dem, err := BuildDEM(c, noise.Uniform(1e-2), 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed through a fresh sampler and a reused one: identical
	// shot sequences (cloned eagerly vs re-sampled).
	s1 := NewSampler(dem)
	rng1 := rand.New(rand.NewSource(7))
	var want [][]int32
	for i := 0; i < 200; i++ {
		flagged, _ := s1.Shot(rng1)
		want = append(want, slices.Clone(flagged))
	}
	s2 := NewSampler(dem)
	rng2 := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		flagged, _ := s2.Shot(rng2)
		if !slices.Equal(flagged, want[i]) {
			t.Fatalf("shot %d: %v != %v", i, flagged, want[i])
		}
	}
}

// truncDecoder fakes a decoder that reports every shot as truncated,
// exercising the TruncationCounter aggregation path of RunMemoryOpts.
type truncDecoder struct{ n int }

func (d *truncDecoder) DecodeToObs([]int32) bool { d.n++; return false }
func (d *truncDecoder) TruncationCount() int     { return d.n }

// TestTruncationsSurfaceInMemoryResult checks that per-worker decoder
// truncation counts aggregate into MemoryResult.Truncations, and that a
// healthy union-find run reports zero.
func TestTruncationsSurfaceInMemoryResult(t *testing.T) {
	c := freshCode(t, 3)
	model := noise.Uniform(2e-3)
	const shots = 3000
	res, err := RunMemoryOpts(c, model, nil, RunOptions{
		Rounds: 3, Basis: lattice.ZCheck, Shots: shots, Workers: 2, Seed: 1,
		Factory: func(*DEM) (Decoder, error) { return &truncDecoder{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncations != shots {
		t.Errorf("Truncations = %d, want %d (every shot truncates)", res.Truncations, shots)
	}
	// A decoder without the optional interface reports zero.
	plain, err := RunMemoryOpts(c, model, nil, RunOptions{
		Rounds: 3, Basis: lattice.ZCheck, Shots: shots, Workers: 2, Seed: 1,
		Factory: func(*DEM) (Decoder, error) {
			d := &truncDecoder{}
			return struct{ Decoder }{d}, nil // hide TruncationCount
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Truncations != 0 {
		t.Errorf("Truncations = %d for a decoder without the interface, want 0", plain.Truncations)
	}
}
