package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/pauli"
)

// deformedCode builds a d=5 patch with the centre qubit removed and
// super-stabilizers installed, mirroring what the deform package produces.
func deformedCode(t *testing.T) *code.Code {
	t.Helper()
	c := freshCode(t, 5)
	q0 := lattice.Coord{Row: 5, Col: 5}
	notQ0 := func(q lattice.Coord) bool { return q != q0 }
	for _, typ := range []lattice.CheckType{lattice.XCheck, lattice.ZCheck} {
		stabs := c.StabsOn(q0, typ)
		var ids []int
		var prod pauli.Op
		for _, s := range stabs {
			prod = pauli.Mul(prod, s.Op)
			c.RemoveStab(s.ID)
			ids = append(ids, c.AddGauge(s.Op.RestrictedTo(notQ0), s.Ancilla, false))
		}
		c.AddSuperStab(prod.RestrictedTo(notQ0), ids)
	}
	if err := c.RemoveDataQubit(q0); err != nil {
		t.Fatal(err)
	}
	if err := c.RefreshLogicals(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// demValuesEqual asserts two DEMs agree on every consumer-visible field,
// bit for bit (mechanism probabilities compared with ==, no tolerance).
func demValuesEqual(t *testing.T, got, want *DEM, ctx string) {
	t.Helper()
	if got.NumDets != want.NumDets {
		t.Fatalf("%s: NumDets = %d, want %d", ctx, got.NumDets, want.NumDets)
	}
	if got.rawMechs != want.rawMechs {
		t.Fatalf("%s: rawMechs = %d, want %d", ctx, got.rawMechs, want.rawMechs)
	}
	if !reflect.DeepEqual(got.DetRound, want.DetRound) || !reflect.DeepEqual(got.DetObs, want.DetObs) {
		t.Fatalf("%s: detector layout differs", ctx)
	}
	if !reflect.DeepEqual(got.Observables, want.Observables) {
		t.Fatalf("%s: observables differ", ctx)
	}
	if len(got.Mechs) != len(want.Mechs) {
		t.Fatalf("%s: %d mechanisms, want %d", ctx, len(got.Mechs), len(want.Mechs))
	}
	for i := range got.Mechs {
		g, w := got.Mechs[i], want.Mechs[i]
		if g.P != w.P || g.Obs != w.Obs || !reflect.DeepEqual(g.Dets, w.Dets) {
			t.Fatalf("%s: mechanism %d = {P:%v Dets:%v Obs:%v}, want {P:%v Dets:%v Obs:%v}",
				ctx, i, g.P, g.Dets, g.Obs, w.P, w.Dets, w.Obs)
		}
	}
}

// randomOverlay draws a site-rate overlay over the code's qubits with
// quantized power-of-two multipliers, the shape reweightOverlay and defect
// events produce.
func randomOverlay(rng *rand.Rand, sites []lattice.Coord, base float64) map[lattice.Coord]float64 {
	n := 1 + rng.Intn(4)
	out := make(map[lattice.Coord]float64, n)
	for i := 0; i < n; i++ {
		q := sites[rng.Intn(len(sites))]
		mult := float64(int64(2) << rng.Intn(6)) // 2..64
		r := mult * base
		if r > 0.45 {
			r = 0.45
		}
		if prev, ok := out[q]; !ok || r > prev {
			out[q] = r
		}
	}
	return out
}

// TestIncrementalDEMMatchesFullRebuild is the headline equivalence sweep:
// random overlay sequences — apply, stack, expire — over pristine and
// deformed codes in both bases, asserting at every step that the patched
// DEM is value-identical to a fresh full BuildDEM of the same variant
// model, whether patched from the nominal base or from the previous
// (already patched) DEM in the sequence.
func TestIncrementalDEMMatchesFullRebuild(t *testing.T) {
	codes := []struct {
		name string
		c    *code.Code
	}{
		{"d3", freshCode(t, 3)},
		{"d5-deformed", deformedCode(t)},
	}
	for _, tc := range codes {
		for _, basis := range []lattice.CheckType{lattice.ZCheck, lattice.XCheck} {
			nominal := noise.Uniform(1e-3).WithCorrelated(2e-4)
			base, err := BuildDEM(tc.c, nominal, 4, basis)
			if err != nil {
				t.Fatal(err)
			}
			if base.plan == nil {
				t.Fatalf("%s/basis %v: nominal build recorded no patch plan", tc.name, basis)
			}
			sites := append([]lattice.Coord(nil), tc.c.DataQubits()...)
			sites = append(sites, tc.c.SyndromeQubits()...)
			rng := rand.New(rand.NewSource(int64(41*len(tc.name)) + int64(basis)))
			pt := &Patcher{}
			active := map[lattice.Coord]float64{}
			prev := base
			for step := 0; step < 25; step++ {
				switch {
				case step%5 == 4:
					// Expire everything: back to the nominal rates.
					active = map[lattice.Coord]float64{}
				case step%3 == 2 && len(active) > 0:
					// Expire one site.
					for q := range active {
						delete(active, q)
						break
					}
				default:
					// Apply a fresh overlay on top (stacking, max wins —
					// the OverlaySiteRates composition rule).
					for q, r := range randomOverlay(rng, sites, 1e-3) {
						if prevR, ok := active[q]; !ok || r > prevR {
							active[q] = r
						}
					}
				}
				variant := nominal.WithSiteRates(cloneRates(active))
				want, err := BuildDEM(tc.c, variant, 4, basis)
				if err != nil {
					t.Fatal(err)
				}
				fromBase, ok := pt.Patch(base, variant)
				if !ok {
					t.Fatalf("%s/basis %v step %d: patch from base refused", tc.name, basis, step)
				}
				demValuesEqual(t, fromBase, want, tc.name+"/from-base")
				fromPrev, ok := pt.Patch(prev, variant)
				if !ok {
					t.Fatalf("%s/basis %v step %d: patch from previous refused", tc.name, basis, step)
				}
				demValuesEqual(t, fromPrev, want, tc.name+"/from-prev")
				if !SamePatchCore(fromBase, base) || !SamePatchCore(fromPrev, base) {
					t.Fatalf("%s/basis %v step %d: patched DEMs must share the base's plan core", tc.name, basis, step)
				}
				prev = fromPrev
			}
		}
	}
}

func cloneRates(m map[lattice.Coord]float64) map[lattice.Coord]float64 {
	out := make(map[lattice.Coord]float64, len(m))
	for q, r := range m {
		out[q] = r
	}
	return out
}

// TestDEMPatchNoOverlayReturnsBase pins the expire fast path: a variant
// whose overrides touch no circuit site (or none at all) is the base DEM
// itself, same pointer.
func TestDEMPatchNoOverlayReturnsBase(t *testing.T) {
	c := freshCode(t, 3)
	nominal := noise.Uniform(1e-3)
	base, err := BuildDEM(c, nominal, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	pt := &Patcher{}
	if got, ok := pt.Patch(base, nominal); !ok || got != base {
		t.Errorf("patch to the base model = (%p, %v), want the base pointer back", got, ok)
	}
	offCircuit := nominal.WithSiteRates(map[lattice.Coord]float64{{Row: 99, Col: 99}: 0.25})
	if got, ok := pt.Patch(base, offCircuit); !ok || got != base {
		t.Errorf("off-circuit overlay = (%p, %v), want the base pointer back", got, ok)
	}
}

// TestDEMPatchFallsBack pins the refusal cases: anything that could change
// the mechanism set itself must force a full rebuild.
func TestDEMPatchFallsBack(t *testing.T) {
	c := freshCode(t, 3)
	nominal := noise.Uniform(1e-3)
	base, err := BuildDEM(c, nominal, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	site := c.DataQubits()[0]
	pt := &Patcher{}
	cases := []struct {
		name  string
		model *noise.Model
	}{
		{"scalar-rate", noise.Uniform(2e-3)},
		{"correlated", nominal.WithCorrelated(1e-4)},
		{"defects", nominal.WithDefects([]lattice.Coord{site}, 0.5)},
		{"zero-override", nominal.WithSiteRates(map[lattice.Coord]float64{site: 0})},
	}
	for _, tc := range cases {
		if _, ok := pt.Patch(base, tc.model); ok {
			t.Errorf("%s: patch accepted a variant that may change the mechanism set", tc.name)
		}
	}
	// A planless DEM (phased-style build) must refuse too.
	planless := &DEM{NumDets: base.NumDets, Mechs: base.Mechs}
	variant := nominal.WithSiteRates(map[lattice.Coord]float64{site: 0.25})
	if _, ok := pt.Patch(planless, variant); ok {
		t.Error("patch accepted a DEM without a contribution plan")
	}
	// And the fallback must leave no stale marks behind: a valid patch
	// right after a refused one still matches the full rebuild.
	got, ok := pt.Patch(base, variant)
	if !ok {
		t.Fatal("valid patch refused after a fallback")
	}
	want, err := BuildDEM(c, variant, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	demValuesEqual(t, got, want, "post-fallback")
}

// TestDEMPatchZeroAllocs pins the steady-state allocation budget: beyond
// the clone-on-write probability vector and the two fixed output headers
// (DEM + plan), a warm Patcher allocates nothing per patch.
func TestDEMPatchZeroAllocs(t *testing.T) {
	c := freshCode(t, 5)
	nominal := noise.Uniform(1e-3)
	base, err := BuildDEM(c, nominal, 6, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	variant := nominal.WithSiteRates(map[lattice.Coord]float64{
		c.DataQubits()[0]: 8e-3,
		c.DataQubits()[3]: 16e-3,
	})
	pt := &Patcher{}
	if _, ok := pt.Patch(base, variant); !ok { // warm the scratch
		t.Fatal("patch refused")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := pt.Patch(base, variant); !ok {
			t.Fatal("patch refused")
		}
	})
	if allocs > 3 {
		t.Errorf("steady-state patch does %.1f allocs, want <= 3 (mechanism vector + DEM + plan)", allocs)
	}
}

// TestConcurrentPatchRace exercises concurrent patching from one shared
// base with per-goroutine Patchers (the trajectory engine's arrangement)
// under the race detector, and checks cross-goroutine value identity.
func TestConcurrentPatchRace(t *testing.T) {
	c := freshCode(t, 3)
	nominal := noise.Uniform(1e-3)
	base, err := BuildDEM(c, nominal, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	variant := nominal.WithSiteRates(map[lattice.Coord]float64{c.DataQubits()[1]: 8e-3})
	want, ok := (&Patcher{}).Patch(base, variant)
	if !ok {
		t.Fatal("patch refused")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pt := &Patcher{}
			for i := 0; i < 50; i++ {
				got, ok := pt.Patch(base, variant)
				if !ok {
					t.Error("patch refused")
					return
				}
				for mi := range got.Mechs {
					if got.Mechs[mi].P != want.Mechs[mi].P {
						t.Errorf("mechanism %d diverged across goroutines", mi)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestBuildDEMPatchedCacheAccounting pins that a patch-filled entry is
// accounted exactly like a built one (a miss), hits on re-request, and
// counts in sim.dem.patches rather than sim.dem.builds.
func TestBuildDEMPatchedCacheAccounting(t *testing.T) {
	c := freshCode(t, 3)
	nominal := noise.Uniform(1e-3)
	dc := NewDEMCache(0)
	base, baseKey, err := dc.BuildDEMKeyed(c, nominal, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if baseKey == "" {
		t.Fatal("empty canonical key")
	}
	variant := nominal.WithSiteRates(map[lattice.Coord]float64{c.DataQubits()[0]: 8e-3})
	builds := obs.Default().Counter("sim.dem.builds")
	patches := obs.Default().Counter("sim.dem.patches")
	b0, p0 := builds.Value(), patches.Value()
	pt := &Patcher{}
	dem, key, err := dc.BuildDEMPatched(pt, base, c, variant, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if key == baseKey {
		t.Fatal("variant shares the base's cache key")
	}
	if builds.Value() != b0 || patches.Value() != p0+1 {
		t.Errorf("counters moved by (builds %d, patches %d), want (0, 1)",
			builds.Value()-b0, patches.Value()-p0)
	}
	if st := dc.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (base build + patch fill)", st.Misses)
	}
	again, _, err := dc.BuildDEMPatched(pt, base, c, variant, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if again != dem {
		t.Error("re-request must hit the cached pointer")
	}
	if patches.Value() != p0+1 {
		t.Error("cache hit re-patched")
	}
}

// TestDEMCacheOverlayFingerprintCanonical is the overlay-fingerprinting
// regression: two identical overlays assembled in different map insertion
// orders must land on one cache entry — a single dem.builds — and overlays
// differing by one ulp must not collide.
func TestDEMCacheOverlayFingerprintCanonical(t *testing.T) {
	c := freshCode(t, 3)
	nominal := noise.Uniform(1e-3)
	qs := c.DataQubits()
	forward := map[lattice.Coord]float64{}
	for i, m := range []float64{8, 16, 32, 4} {
		forward[qs[i]] = m * 1e-3
	}
	backward := map[lattice.Coord]float64{}
	for i := 3; i >= 0; i-- {
		backward[qs[i]] = forward[qs[i]]
	}
	dc := NewDEMCache(0)
	builds := obs.Default().Counter("sim.dem.builds")
	b0 := builds.Value()
	a, err := dc.BuildDEM(c, nominal.WithSiteRates(forward), 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dc.BuildDEM(c, nominal.WithSiteRates(backward), 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical overlays in different insertion orders missed the cache")
	}
	if got := builds.Value() - b0; got != 1 {
		t.Errorf("dem.builds advanced by %d, want exactly 1", got)
	}
	// Exactness: a one-ulp rate difference is a different configuration.
	nudged := cloneRates(forward)
	nudged[qs[0]] = math.Nextafter(nudged[qs[0]], 1)
	cNudged, err := dc.BuildDEM(c, nominal.WithSiteRates(nudged), 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if cNudged == a {
		t.Error("one-ulp rate difference collided in the cache key")
	}
}
