package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"surfdeformer/internal/circuit"
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
	if !reflect.DeepEqual(got.DetRound, want.DetRound) || !reflect.DeepEqual(got.DetObs, want.DetObs) {
		t.Fatalf("%s: detector layout differs", ctx)
	}
	if !reflect.DeepEqual(got.Observables, want.Observables) {
		t.Fatalf("%s: observables differ", ctx)
	}
	if len(got.Mechs) != len(want.Mechs) || len(got.P) != len(got.Mechs) || len(want.P) != len(want.Mechs) {
		t.Fatalf("%s: %d mechanisms with %d probabilities, want %d with %d",
			ctx, len(got.Mechs), len(got.P), len(want.Mechs), len(want.P))
	}
	for i := range got.Mechs {
		g, w := got.Mechs[i], want.Mechs[i]
		if got.P[i] != want.P[i] || g.Obs != w.Obs || !reflect.DeepEqual(g.Dets, w.Dets) {
			t.Fatalf("%s: mechanism %d = {P:%v Dets:%v Obs:%v}, want {P:%v Dets:%v Obs:%v}",
				ctx, i, got.P[i], g.Dets, g.Obs, want.P[i], w.Dets, w.Obs)
		}
	}
}

// randomOverlay draws a site-rate overlay over the code's qubits with
// quantized power-of-two multipliers, the shape reweightOverlay and defect
// events produce, plus ¼× and ½× overrides below the base rate.
func randomOverlay(rng *rand.Rand, sites []lattice.Coord, base float64) map[lattice.Coord]float64 {
	n := 1 + rng.Intn(4)
	out := make(map[lattice.Coord]float64, n)
	for i := 0; i < n; i++ {
		q := sites[rng.Intn(len(sites))]
		e := rng.Intn(8) - 2 // ¼, ½, then 2..64
		if e >= 0 {
			e++
		}
		r := math.Ldexp(base, e)
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
// DEM is value-identical to the forward reference refBuildDEM of the same
// variant model (as is a fresh BuildDEM), whether patched from the nominal
// base or from the previous (already patched) DEM in the sequence.
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
				want := refDEM(t, tc.c, variant, 4, basis)
				full, err := BuildDEM(tc.c, variant, 4, basis)
				if err != nil {
					t.Fatal(err)
				}
				demValuesEqual(t, full, want, tc.name+"/full")
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

// TestDEMPatchLowerOverrideMatchesBuild pins overrides below the base rate.
// An override replaces the base rate even when it is lower, and a gate
// between two overridden qubits takes the larger override, so a lowered
// site must refold exactly as a full build rates it. One site at 2.5e-4
// slides over the code with a CX partner at 8e-3 and a third site at 1e-4;
// every variant is patched from the nominal base and from the previous
// patch.
func TestDEMPatchLowerOverrideMatchesBuild(t *testing.T) {
	codes := []struct {
		name string
		c    *code.Code
	}{
		{"d3", freshCode(t, 3)},
		{"d5-deformed", deformedCode(t)},
	}
	for _, tc := range codes {
		sched, err := circuit.NewSchedule(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		partner := map[lattice.Coord]lattice.Coord{}
		for _, m := range sched.Ops {
			if m.Direct {
				continue
			}
			for _, q := range m.Data {
				if _, ok := partner[q]; !ok {
					partner[q] = m.Ancilla
				}
				if _, ok := partner[m.Ancilla]; !ok {
					partner[m.Ancilla] = q
				}
			}
		}
		sites := append(tc.c.DataQubits(), tc.c.SyndromeQubits()...)
		for _, basis := range []lattice.CheckType{lattice.ZCheck, lattice.XCheck} {
			nominal := noise.Uniform(1e-3).WithCorrelated(2e-4)
			base, err := BuildDEM(tc.c, nominal, 4, basis)
			if err != nil {
				t.Fatal(err)
			}
			pt := &Patcher{}
			prev := base
			for i, q := range sites {
				nb, ok := partner[q]
				if !ok {
					nb = sites[(i+1)%len(sites)]
				}
				rates := map[lattice.Coord]float64{q: 2.5e-4, nb: 8e-3}
				if third := sites[(i+len(sites)/2)%len(sites)]; rates[third] == 0 {
					rates[third] = 1e-4
				}
				variant := nominal.WithSiteRates(rates)
				want, err := BuildDEM(tc.c, variant, 4, basis)
				if err != nil {
					t.Fatal(err)
				}
				ctx := fmt.Sprintf("%s/basis %v/site %v", tc.name, basis, q)
				fromBase, ok := pt.Patch(base, variant)
				if !ok {
					t.Fatalf("%s: patch from base refused", ctx)
				}
				demValuesEqual(t, fromBase, want, ctx+"/from-base")
				fromPrev, ok := pt.Patch(prev, variant)
				if !ok {
					t.Fatalf("%s: patch from previous refused", ctx)
				}
				demValuesEqual(t, fromPrev, want, ctx+"/from-prev")
				prev = fromPrev
			}
		}
	}
}

// FuzzPatchMatchesBuild drives one Patcher through a sequence of random
// models on a fresh d=3 or d=5 code, drawn from every shape Patch accepts
// (randomPatchModel). Every patch, from the nominal base and from the
// previous patch, must equal the forward reference refBuildDEM bit for
// bit, as must BuildDEM; Patch may refuse only a planless DEM — one whose
// fold dropped a mechanism — or a correlated model on a base enumerated
// without the pair.
func FuzzPatchMatchesBuild(f *testing.F) {
	f.Add(int64(1), 3, uint8(0), 4)
	f.Add(int64(2), 5, uint8(1), 8)
	f.Add(int64(3), 3, uint8(1), 12)
	f.Add(int64(4), 5, uint8(0), 2)
	f.Fuzz(func(t *testing.T, seed int64, d int, basis uint8, n int) {
		if d != 5 {
			d = 3
		}
		b := lattice.ZCheck
		if basis&1 == 1 {
			b = lattice.XCheck
		}
		n = int(uint(n) % 17)
		rng := rand.New(rand.NewSource(seed))
		c := freshCode(t, d)
		p := 1e-3 * float64(1+rng.Intn(4))
		nominal := noise.Uniform(p)
		if rng.Intn(2) == 0 {
			nominal = nominal.WithCorrelated(p / 5)
		}
		rounds := 2 + rng.Intn(4)
		base, err := BuildDEM(c, nominal, rounds, b)
		if err != nil {
			t.Fatal(err)
		}
		sites := append(c.DataQubits(), c.SyndromeQubits()...)
		pt := &Patcher{}
		prev := base
		for step := 0; step < 4; step++ {
			model := randomPatchModel(rng, nominal, sites, n)
			want := refDEM(t, c, model, rounds, b)
			full, err := BuildDEM(c, model, rounds, b)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("d=%d basis %v rounds %d step %d", d, b, rounds, step)
			demValuesEqual(t, full, want, ctx+"/full")
			next := base
			for _, from := range []*DEM{base, prev} {
				got, ok := pt.Patch(from, model)
				refuse := from.plan == nil || model.PCorrelated > 0 && nominal.PCorrelated <= 0
				if ok == refuse {
					t.Fatalf("%s: patch ok %v from a base with plan %v, correlated %v → %v",
						ctx, ok, from.plan != nil, nominal.PCorrelated, model.PCorrelated)
				}
				if ok {
					demValuesEqual(t, got, want, ctx+"/patch")
					next = got
				}
			}
			prev = next
		}
	})
}

// randomPatchModel draws a model from nominal in one of the shapes Patch
// accepts: up to n site overrides — below, above and off the circuit, and
// zero or negative, at sites the base may not override — on top of
// nominal, a changed scalar rate (zero included), a Defective set, or a
// changed correlated rate (zero included; on an uncorrelated base a
// positive one must be refused).
func randomPatchModel(rng *rand.Rand, nominal *noise.Model, sites []lattice.Coord, n int) *noise.Model {
	p := nominal.P2
	m := *nominal
	switch rng.Intn(4) {
	case 0:
		r := []float64{0, p / 2, 2 * p}[rng.Intn(3)]
		switch rng.Intn(3) {
		case 0:
			m.P1 = r
		case 1:
			m.P2 = r
		default:
			m.PM = r
		}
	case 1:
		defects := []lattice.Coord{sites[rng.Intn(len(sites))], sites[rng.Intn(len(sites))]}
		m = *m.WithDefects(defects, []float64{noise.DefaultDefectRate, 0, 4 * p}[rng.Intn(3)])
	case 2:
		m.PCorrelated = []float64{0, p / 3, p / 7}[rng.Intn(3)]
	}
	rates := map[lattice.Coord]float64{}
	for i := rng.Intn(n + 1); i > 0; i-- {
		q := sites[rng.Intn(len(sites))]
		if rng.Intn(5) == 0 {
			q = lattice.Coord{Row: -1 - rng.Intn(3), Col: rng.Intn(3)} // off the circuit
		}
		r := math.Ldexp(p, rng.Intn(9)-4) // p/16 .. 16p
		switch rng.Intn(6) {
		case 0:
			r = []float64{0, -r}[rng.Intn(2)]
		case 1, 2:
			r *= 1 + rng.Float64()
		}
		rates[q] = r
	}
	return m.WithSiteRates(rates)
}

// refDEM is refBuildDEM's DEM of a single-model build.
func refDEM(t *testing.T, c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) *DEM {
	t.Helper()
	dem, _, err := refBuildDEM(c, func(int) *noise.Model { return model }, rounds, basis)
	if err != nil {
		t.Fatal(err)
	}
	return dem
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

// TestDEMPatchFallsBack pins when Patch refuses — caller builds in full —
// and when it does not. It may refuse only a planless DEM (a phased build,
// or a fold that dropped a mechanism) and a correlated model on a base
// enumerated without the correlated pair. Every other shape — a changed
// scalar rate, a zero idle rate, a Defective set, a zero override at a
// site the base does not override, a changed or zeroed correlated rate on
// a correlated base — patches to exactly the forward reference.
func TestDEMPatchFallsBack(t *testing.T) {
	c := freshCode(t, 3)
	nominal := noise.Uniform(1e-3)
	site := c.DataQubits()[0]
	pt := &Patcher{}
	for _, bm := range []*noise.Model{nominal, nominal.WithCorrelated(2e-4)} {
		base, err := BuildDEM(c, bm, 4, lattice.ZCheck)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name  string
			model *noise.Model
		}{
			{"scalar-rate", noise.Uniform(2e-3).WithCorrelated(bm.PCorrelated)},
			{"zero-idle", &noise.Model{P2: 1e-3, PM: 1e-3, PCorrelated: bm.PCorrelated}},
			{"defects", bm.WithDefects([]lattice.Coord{site}, 0.5)},
			{"zero-override", bm.WithSiteRates(map[lattice.Coord]float64{site: 0})},
		}
		if bm.PCorrelated > 0 {
			cases = append(cases, struct {
				name  string
				model *noise.Model
			}{"correlated-rate", bm.WithCorrelated(5e-4)}, struct {
				name  string
				model *noise.Model
			}{"correlated-off", bm.WithCorrelated(0)})
		}
		for _, tc := range cases {
			ctx := fmt.Sprintf("%s (base correlated %v)", tc.name, bm.PCorrelated)
			got, ok := pt.Patch(base, tc.model)
			if !ok {
				t.Fatalf("%s: patch refused", ctx)
			}
			demValuesEqual(t, got, refDEM(t, c, tc.model, 4, lattice.ZCheck), ctx)
		}
	}
	base, err := BuildDEM(c, nominal, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pt.Patch(base, nominal.WithCorrelated(1e-4)); ok {
		t.Error("patch rated a correlated pair the base's structure lacks")
	}
	variant := nominal.WithSiteRates(map[lattice.Coord]float64{site: 0.25})
	planless := &DEM{NumDets: base.NumDets, Mechs: base.Mechs}
	if _, ok := pt.Patch(planless, variant); ok {
		t.Error("patch accepted a DEM without a contribution plan")
	}
	idleOnly := &noise.Model{P1: 1e-3}
	dropped, ok := pt.Patch(base, idleOnly)
	if !ok || dropped.plan != nil {
		t.Fatalf("a fold that dropped every mechanism no idle fault feeds: ok %v, plan kept %v; want ok, none", ok, dropped.plan != nil)
	}
	demValuesEqual(t, dropped, refDEM(t, c, idleOnly, 4, lattice.ZCheck), "idle-only")
	if _, ok := pt.Patch(dropped, variant); ok {
		t.Error("patch accepted a DEM whose fold dropped a mechanism")
	}
	// And a refusal must leave no stale marks behind: a valid patch right
	// after one still matches the full rebuild.
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

// TestDEMPatchSharesMechanisms pins the split of structure and rates: a
// patched DEM's Mechs is its base's backing array and its P is its own, and
// a fold that drops a mechanism builds fresh Mechs and P slices, leaving
// the base's untouched (a filter in place would rewrite the base's
// mechanism list under every DEM that shares it).
func TestDEMPatchSharesMechanisms(t *testing.T) {
	c := freshCode(t, 3)
	nominal := noise.Uniform(1e-3)
	base, err := BuildDEM(c, nominal, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	mechs, ps := slices.Clone(base.Mechs), slices.Clone(base.P)
	pt := &Patcher{}
	got, ok := pt.Patch(base, nominal.WithSiteRates(map[lattice.Coord]float64{c.DataQubits()[0]: 8e-3}))
	if !ok {
		t.Fatal("patch refused")
	}
	if &got.Mechs[0] != &base.Mechs[0] || len(got.Mechs) != len(base.Mechs) {
		t.Error("patched DEM does not share its base's mechanism list")
	}
	if &got.P[0] == &base.P[0] || slices.Equal(got.P, base.P) {
		t.Error("patched DEM does not own a probability vector of its own")
	}
	dropped, ok := pt.Patch(base, &noise.Model{P1: 1e-3})
	if !ok || dropped.plan != nil || len(dropped.Mechs) >= len(base.Mechs) {
		t.Fatalf("idle-only patch: ok %v, plan kept %v, %d of %d mechanisms; want a drop",
			ok, dropped.plan != nil, len(dropped.Mechs), len(base.Mechs))
	}
	if &dropped.Mechs[0] == &base.Mechs[0] || &dropped.P[0] == &base.P[0] {
		t.Error("a fold that dropped mechanisms reused its base's slices")
	}
	if !reflect.DeepEqual(base.Mechs, mechs) || !slices.Equal(base.P, ps) {
		t.Error("patching rewrote the base DEM")
	}
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
				for mi := range got.P {
					if got.P[mi] != want.P[mi] {
						t.Errorf("mechanism %d diverged across goroutines", mi)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
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
