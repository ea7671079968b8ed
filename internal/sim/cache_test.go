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

// TestDEMCacheAcrossInternReset forces a reset of the code intern table
// (by interning throwaway codes until code.intern.clears moves) and pins
// what a reset may cost: cache misses, never a wrong hit. A code that was
// interned before keeps its ID; a structurally equal code interned after
// gets an ID never issued before, so the DEM built under the old ID is not
// served to it. Patcher.Variant, handed the old code's DEM as patch base,
// refuses to patch across the reset and builds in full, and that DEM
// equals the old code's.
func TestDEMCacheAcrossInternReset(t *testing.T) {
	c := freshCode(t, 3)
	nominal := noise.Uniform(1e-3)
	dc := NewDEMCache(0)
	oldDEM, oldKey, err := dc.BuildDEMKeyed(c, nominal, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	oldID := c.ID()

	clears := obs.Default().Counter("code.intern.clears")
	c0, lastID := clears.Value(), oldID
	for i := 0; clears.Value() == c0; i++ {
		if i > 1<<20 {
			t.Fatal("interning a million distinct codes never reset the table")
		}
		lastID = max(lastID, code.New([]lattice.Coord{{Row: -1 - i, Col: 0}}, nil).ID())
	}
	if c.ID() != oldID {
		t.Fatal("a table reset changed a memoized ID")
	}
	again := freshCode(t, 3)
	if again.Fingerprint() != c.Fingerprint() {
		t.Fatal("fresh d=3 patches differ in fingerprint")
	}
	if again.ID() <= lastID {
		t.Fatalf("code re-interned after the reset got ID %d, not above every ID issued before (%d)", again.ID(), lastID)
	}

	dem, key, err := dc.BuildDEMKeyed(again, nominal, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if key == oldKey || dem == oldDEM {
		t.Fatal("the DEM built under the old ID was served after the reset")
	}
	demValuesEqual(t, dem, oldDEM, "rebuilt nominal")

	variant := nominal.WithSiteRates(siteRates(map[lattice.Coord]float64{c.DataQubits()[0]: 8e-3}))
	builds := obs.Default().Counter("sim.dem.builds")
	patches := obs.Default().Counter("sim.dem.patches")
	b0, p0 := builds.Value(), patches.Value()
	got, err := (&Patcher{}).Variant(oldDEM, again, variant, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if SamePatchCore(got, oldDEM) || patches.Value() != p0 || builds.Value() != b0+1 {
		t.Fatalf("patched across the reset (builds +%d, patches +%d); want one full build",
			builds.Value()-b0, patches.Value()-p0)
	}
	want, err := (&Patcher{}).Variant(oldDEM, c, variant, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	demValuesEqual(t, got, want, "full build after the reset")
}
