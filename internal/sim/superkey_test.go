package sim

import (
	"reflect"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
)

// bandagedCode returns a fresh d-patch with the bandage construction applied
// to one data qubit (the first that accepts it), plus that qubit — the
// minimal code that differs from the pristine patch only in super-stabilizer
// structure.
func bandagedCode(t *testing.T, d int) (*code.Code, lattice.Coord) {
	t.Helper()
	c := freshCode(t, d)
	for _, q := range c.DataQubits() {
		if _, err := deform.BandageQubit(c, q); err == nil {
			return c, q
		}
	}
	t.Fatal("no data qubit of the fresh patch accepts a bandage")
	return nil, lattice.Coord{}
}

// TestDEMCacheKeyFingerprintsSuperStabilizers pins the cache-identity half
// of the gauge-merge contract: a bandaged code and the pristine code it came
// from differ only in super-stabilizer structure (merged checks, demoted
// gauges), and their DEM cache keys must differ — while rebuilding the same
// bandage from scratch reproduces the same key (the construction, like
// Spec.Build, is a deterministic function of its inputs).
func TestDEMCacheKeyFingerprintsSuperStabilizers(t *testing.T) {
	dc := NewDEMCache(0)
	model := noise.Uniform(1e-3)
	_, pristineKey, err := dc.BuildDEMKeyed(freshCode(t, 3), model, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	merged, q := bandagedCode(t, 3)
	_, mergedKey, err := dc.BuildDEMKeyed(merged, model, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if mergedKey == pristineKey {
		t.Error("bandaged code shares the pristine cache key — super-stabilizer structure not fingerprinted")
	}
	// Same construction, rebuilt from scratch: same key, same cached DEM.
	rebuilt := freshCode(t, 3)
	if _, err := deform.BandageQubit(rebuilt, q); err != nil {
		t.Fatalf("re-bandaging %v: %v", q, err)
	}
	_, rebuiltKey, err := dc.BuildDEMKeyed(rebuilt, model, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if rebuiltKey != mergedKey {
		t.Error("identical bandage constructions produced different cache keys")
	}
	if st := dc.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 2)", st.Hits, st.Misses)
	}
}

// TestPatcherRefusesAcrossCodeStructureChange pins the patch-safety half: a
// patch base enumerated for the pristine code must not be re-rated into a
// DEM for the gauge-merged code (the mechanism set itself changed), so
// Patcher.Variant handed a stale cross-code base falls back to a full build
// — and the fallback is value-identical to a direct BuildDEM of the merged
// code. A same-code base still patches.
func TestPatcherRefusesAcrossCodeStructureChange(t *testing.T) {
	nominal := noise.Uniform(1e-3)
	merged, q := bandagedCode(t, 3)
	variant := nominal.WithSiteRates(siteRates(map[lattice.Coord]float64{q: 0.25}))

	dc := NewDEMCache(0)
	pt := &Patcher{}
	pristineBase, _, err := dc.BuildDEMKeyed(freshCode(t, 3), nominal, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pt.Variant(pristineBase, merged, variant, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if SamePatchCore(got, pristineBase) {
		t.Fatal("stale pristine base was patched across a code-structure change")
	}
	want, err := BuildDEM(merged, variant, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDets != want.NumDets || !reflect.DeepEqual(got.Mechs, want.Mechs) || !reflect.DeepEqual(got.P, want.P) {
		t.Error("full-build fallback differs from a direct BuildDEM of the merged code")
	}

	// Control: with a base built for the merged code itself, the same variant
	// request takes the patch fast path and agrees with the full build.
	mergedBase, _, err := dc.BuildDEMKeyed(merged, nominal, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := pt.Variant(mergedBase, merged, variant, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if !SamePatchCore(patched, mergedBase) {
		t.Error("same-code patch base did not take the patch fast path")
	}
	if patched.NumDets != want.NumDets || !reflect.DeepEqual(patched.Mechs, want.Mechs) || !reflect.DeepEqual(patched.P, want.P) {
		t.Error("patched DEM of the merged code differs from its full build")
	}
}
