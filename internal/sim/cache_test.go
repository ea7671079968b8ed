package sim

import (
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
)

func TestDEMCacheHitsIdenticalConfig(t *testing.T) {
	dc := NewDEMCache(0)
	c := freshCode(t, 3)
	model := noise.Uniform(1e-3)
	a, err := dc.BuildDEM(c, model, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dc.BuildDEM(c, model, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical configuration must return the identical *DEM")
	}
	if st := dc.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", st.Hits, st.Misses)
	}
}

// Structurally identical codes hit even when they are distinct pointers —
// the case sweep pipelines produce by rebuilding specs per configuration.
func TestDEMCacheStructuralKey(t *testing.T) {
	dc := NewDEMCache(0)
	model := noise.Uniform(1e-3)
	a, err := dc.BuildDEM(freshCode(t, 3), model, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dc.BuildDEM(freshCode(t, 3), model, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("structurally identical codes must share a cache entry")
	}
	// A second, structurally identical model must hit as well.
	if _, err := dc.BuildDEM(freshCode(t, 3), noise.Uniform(1e-3), 4, lattice.ZCheck); err != nil {
		t.Fatal(err)
	}
	if st := dc.Stats(); st.Hits != 2 {
		t.Errorf("hits = %d, want 2", st.Hits)
	}
}

func TestDEMCacheMissesOnAnyDifference(t *testing.T) {
	dc := NewDEMCache(0)
	c := freshCode(t, 3)
	model := noise.Uniform(1e-3)
	base, err := dc.BuildDEM(c, model, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name   string
		c      *code.Code
		m      *noise.Model
		rounds int
		basis  lattice.CheckType
	}{
		{"rounds", c, model, 5, lattice.ZCheck},
		{"basis", c, model, 4, lattice.XCheck},
		{"rate", c, noise.Uniform(2e-3), 4, lattice.ZCheck},
		{"defects", c, model.WithDefects([]lattice.Coord{{Row: 1, Col: 1}}, 0.5), 4, lattice.ZCheck},
		{"correlated", c, model.WithCorrelated(1e-4), 4, lattice.ZCheck},
		{"siterates", c, model.WithSiteRates(siteRates(map[lattice.Coord]float64{{Row: 1, Col: 1}: 0.25})), 4, lattice.ZCheck},
		{"siterate-value", c, model.WithSiteRates(siteRates(map[lattice.Coord]float64{{Row: 1, Col: 1}: 0.5})), 4, lattice.ZCheck},
		{"code", freshCode(t, 5), model, 4, lattice.ZCheck},
	}
	for _, v := range variants {
		dem, err := dc.BuildDEM(v.c, v.m, v.rounds, v.basis)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if dem == base {
			t.Errorf("variant %q must not share the base entry", v.name)
		}
	}
	if st := dc.Stats(); st.Hits != 0 || st.Misses != len(variants)+1 {
		t.Errorf("stats = (%d hits, %d misses), want (0, %d)", st.Hits, st.Misses, len(variants)+1)
	}
}

func TestDEMCacheEviction(t *testing.T) {
	dc := NewDEMCache(2)
	c := freshCode(t, 3)
	for rounds := 2; rounds <= 5; rounds++ {
		if _, err := dc.BuildDEM(c, noise.Uniform(1e-3), rounds, lattice.ZCheck); err != nil {
			t.Fatal(err)
		}
	}
	dc.mu.Lock()
	n := len(dc.entries)
	dc.mu.Unlock()
	if n > 2 {
		t.Errorf("cache holds %d entries, limit is 2", n)
	}
}

// TestDEMCacheStatsMonotoneAcrossClears pins the stats contract: a
// wholesale clear resets the working set but never the hit/miss counters,
// and is itself counted — long-running consumers can difference snapshots
// mid-trajectory without losing history to an eviction.
func TestDEMCacheStatsMonotoneAcrossClears(t *testing.T) {
	dc := NewDEMCache(2)
	c := freshCode(t, 3)
	model := noise.Uniform(1e-3)
	build := func(rounds int) *DEM {
		t.Helper()
		dem, err := dc.BuildDEM(c, model, rounds, lattice.ZCheck)
		if err != nil {
			t.Fatal(err)
		}
		return dem
	}
	build(2)
	build(2) // hit
	build(3)
	before := dc.Stats()
	if before.Hits != 1 || before.Misses != 2 || before.Clears != 0 || before.Entries != 2 {
		t.Fatalf("pre-clear stats %+v, want 1 hit / 2 misses / 0 clears / 2 entries", before)
	}
	build(4) // working set at the limit: clears, then inserts
	after := dc.Stats()
	if after.Hits < before.Hits || after.Misses < before.Misses {
		t.Errorf("counters went backwards across a clear: %+v -> %+v", before, after)
	}
	if after.Clears != 1 {
		t.Errorf("clears = %d, want 1", after.Clears)
	}
	if after.Entries != 1 {
		t.Errorf("post-clear working set %d, want 1", after.Entries)
	}
	if after.Misses != 3 {
		t.Errorf("misses = %d, want 3 (counters survive the clear)", after.Misses)
	}
}

// TestVariantAcrossEqualCodes pins Patcher.Variant's same-code gate,
// which compares fingerprints. Given a base DEM built for one d=3 patch, a
// separately built patch with an equal fingerprint (as a recovery back to
// an earlier shape rebuilds its code as a new object) is patched, not
// built; a bandaged code, whose mechanism set differs, is built in full.
// Either way the variant equals a full BuildDEM of its own code.
func TestVariantAcrossEqualCodes(t *testing.T) {
	c := freshCode(t, 3)
	nominal := noise.Uniform(1e-3)
	base, err := BuildDEM(c, nominal, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	twin := freshCode(t, 3)
	if twin.Fingerprint() != c.Fingerprint() {
		t.Fatal("fresh d=3 patches differ in fingerprint")
	}
	bandaged, _ := bandagedCode(t, 3)
	variant := nominal.WithSiteRates(siteRates(map[lattice.Coord]float64{c.DataQubits()[0]: 8e-3}))
	builds := obs.Default().Counter("sim.dem.builds")
	patches := obs.Default().Counter("sim.dem.patches")
	for _, tc := range []struct {
		name              string
		c                 *code.Code
		nBuilds, nPatches int64
	}{
		{"twin", twin, 0, 1},
		{"bandaged", bandaged, 1, 0},
	} {
		b0, p0 := builds.Value(), patches.Value()
		got, err := (&Patcher{}).Variant(base, tc.c, variant, 4, lattice.ZCheck)
		if err != nil {
			t.Fatal(err)
		}
		if db, dp := builds.Value()-b0, patches.Value()-p0; db != tc.nBuilds || dp != tc.nPatches || SamePatchCore(got, base) != (tc.nPatches == 1) {
			t.Errorf("%s: builds +%d, patches +%d, same core %v; want +%d, +%d",
				tc.name, db, dp, SamePatchCore(got, base), tc.nBuilds, tc.nPatches)
		}
		want, err := BuildDEM(tc.c, variant, 4, lattice.ZCheck)
		if err != nil {
			t.Fatal(err)
		}
		demValuesEqual(t, got, want, tc.name)
	}
}
