package deform

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"surfdeformer/internal/lattice"
)

var allPolicies = []Policy{PolicySurfDeformer, PolicyASC, PolicyNoBalance}

// resetDistanceMemo empties the process-wide distance memo.
func resetDistanceMemo() {
	distanceMemo.mu.Lock()
	distanceMemo.entries = make(map[string]distanceEntry)
	distanceMemo.mu.Unlock()
}

// randomSites draws n data or syndrome coordinates inside the spec's
// bounding box.
func randomSites(rng *rand.Rand, s *Spec, n int) []lattice.Coord {
	min, max := s.Bounds()
	var out []lattice.Coord
	for len(out) < n {
		q := lattice.Coord{
			Row: min.Row + rng.Intn(max.Row-min.Row+1),
			Col: min.Col + rng.Intn(max.Col-min.Col+1),
		}
		if q.IsData() || q.IsCheck() {
			out = append(out, q)
		}
	}
	return out
}

// trialSpecs returns the candidates the unit would judge next to s: both
// boundary-fix trials of a random surviving boundary data site (as
// balancedPatchQRM builds them) and a one-layer growth trial (as Enlarge
// builds them).
func trialSpecs(rng *rand.Rand, s *Spec) []*Spec {
	var edge []lattice.Coord
	for _, q := range s.Rect().Data {
		if !s.IsInterior(q) && !s.RemovedData[q] {
			edge = append(edge, q)
		}
	}
	var out []*Spec
	if len(edge) > 0 {
		q := edge[rng.Intn(len(edge))]
		for _, fix := range []lattice.CheckType{lattice.XCheck, lattice.ZCheck} {
			trial := s.Clone()
			if trial.PatchQRM(q, fix) == nil {
				out = append(out, trial)
			}
		}
	}
	grown := s.Clone()
	if grown.PatchQADD(lattice.Side(rng.Intn(4)), 1) == nil {
		out = append(out, grown)
	}
	return out
}

// randomUnitSpecs drives a unit through a random Step/Recover/Bandage
// sequence and returns a snapshot of its spec after every call, each
// followed by its trial specs. Dense bursts sever some patches, so the
// list also holds specs whose Build fails.
func randomUnitSpecs(rng *rand.Rand, policy Policy) []*Spec {
	d := 3 + 2*rng.Intn(2)
	u := NewUnit(co(0, 0), d, d, policy, UniformBudget(1+rng.Intn(2)))
	var specs []*Spec
	for call := 0; call < 5; call++ {
		switch k := rng.Intn(5); {
		case k < 3:
			n := 1 + rng.Intn(2)
			if k == 2 {
				n = 3 + rng.Intn(4)
			}
			_, _ = u.Step(randomSites(rng, u.Spec(), n))
		case k == 3:
			var healed []lattice.Coord
			for _, q := range u.Defects() {
				if rng.Intn(2) == 0 {
					healed = append(healed, q)
				}
			}
			_, _ = u.Recover(healed)
		default:
			_, _ = u.Bandage(dataSites(randomSites(rng, u.Spec(), 2)))
		}
		s := u.Spec().Clone()
		specs = append(specs, s)
		specs = append(specs, trialSpecs(rng, s)...)
	}
	return specs
}

func dataSites(sites []lattice.Coord) []lattice.Coord {
	var out []lattice.Coord
	for _, q := range sites {
		if q.IsData() {
			out = append(out, q)
		}
	}
	return out
}

// checkDistances requires Distances to agree with a fresh Build of every
// spec: the same X/Z distances, or an error with the same text.
func checkDistances(t *testing.T, specs []*Spec) {
	t.Helper()
	for i, s := range specs {
		dx, dz, err := s.Distances()
		c, berr := s.Build()
		if err != nil || berr != nil {
			if err == nil || berr == nil || err.Error() != berr.Error() {
				t.Fatalf("spec %d %v: Distances error %v, Build error %v", i, s, err, berr)
			}
			continue
		}
		if dx != c.DistanceX() || dz != c.DistanceZ() {
			t.Fatalf("spec %d %v: Distances %d/%d, Build %d/%d", i, s, dx, dz, c.DistanceX(), c.DistanceZ())
		}
	}
}

// checkColdThenWarm runs checkDistances on a cleared memo, where the first
// sight of each spec compiles it, and again on the warm memo, where every
// spec must be served without compiling.
func checkColdThenWarm(t *testing.T, specs []*Spec) {
	t.Helper()
	resetDistanceMemo()
	checkDistances(t, specs)
	hits, misses := obsMemoHits.Value(), obsMemoMisses.Value()
	checkDistances(t, specs)
	if got := obsMemoHits.Value() - hits; got != int64(len(specs)) {
		t.Fatalf("warm pass: %d memo hits for %d specs", got, len(specs))
	}
	if got := obsMemoMisses.Value() - misses; got != 0 {
		t.Fatalf("warm pass: %d memo misses", got)
	}
}

// TestDistancesMatchBuild pins the memo to the compiler: over specs from
// random unit histories under every policy, plus their boundary-fix and
// growth trials, Distances reports exactly what Build's code reports.
func TestDistancesMatchBuild(t *testing.T) {
	failed := 0
	for _, policy := range allPolicies {
		for seed := int64(1); seed <= 4; seed++ {
			specs := randomUnitSpecs(rand.New(rand.NewSource(seed)), policy)
			for _, s := range specs {
				if _, err := s.Build(); err != nil {
					failed++
				}
			}
			checkColdThenWarm(t, specs)
		}
	}
	if failed == 0 {
		t.Error("no spec failed to build; the error path is not exercised")
	}
}

// FuzzSpecDistances explores further unit histories: every spec must get
// Build's distances or Build's error from the memo, cold and warm.
func FuzzSpecDistances(f *testing.F) {
	for _, seed := range []int64{0, 7, 11, 2024} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkColdThenWarm(t, randomUnitSpecs(rng, allPolicies[rng.Intn(len(allPolicies))]))
	})
}

// TestMemoKeyCanonical pins what the memo keys on: the spec's content, not
// its map insertion order or false map entries, and every field of it.
func TestMemoKeyCanonical(t *testing.T) {
	base := func() *Spec {
		s := NewSquareSpec(co(0, 0), 5)
		s.RemovedData[co(5, 5)] = true
		s.RemovedData[co(1, 9)] = true
		s.Fixes[co(1, 9)] = lattice.ZCheck
		s.RemovedSyndrome[co(8, 8)] = true
		return s
	}
	key := base().memoKey()

	s := NewSquareSpec(co(0, 0), 5)
	s.RemovedSyndrome[co(8, 8)] = true
	s.Fixes[co(1, 9)] = lattice.ZCheck
	s.RemovedData[co(1, 9)] = true
	s.RemovedData[co(5, 5)] = true
	if s.memoKey() != key {
		t.Error("the same content inserted in another order keys differently")
	}
	s.RemovedData[co(3, 3)] = false
	s.RemovedSyndrome[co(2, 2)] = false
	if s.memoKey() != key {
		t.Error("a false removal entry keys differently from an absent one")
	}
	if base().Clone().memoKey() != key {
		t.Error("a clone keys differently")
	}

	for _, tc := range []struct {
		name string
		edit func(*Spec)
	}{
		{"origin", func(s *Spec) { s.Origin.Col += 2 }},
		{"DX", func(s *Spec) { s.DX++ }},
		{"DZ", func(s *Spec) { s.DZ++ }},
		{"removed data site", func(s *Spec) { s.RemovedData[co(3, 3)] = true }},
		{"removed syndrome site", func(s *Spec) { s.RemovedSyndrome[co(2, 2)] = true }},
		{"fix type", func(s *Spec) { s.Fixes[co(1, 9)] = lattice.XCheck }},
		{"removal set of a site", func(s *Spec) {
			delete(s.RemovedSyndrome, co(8, 8))
			s.RemovedData[co(8, 8)] = true
		}},
	} {
		s := base()
		tc.edit(s)
		if s.memoKey() == key {
			t.Errorf("changing the %s keeps the key", tc.name)
		}
	}
}

// TestStepMemoEquivalence replays random defect/recovery sequences on two
// units. One clears the memo before every call, so all its judgments
// compile from scratch; the other then judges the same candidates from the
// entries that call left. Their results must be identical.
func TestStepMemoEquivalence(t *testing.T) {
	grown, severed := 0, 0
	for _, policy := range allPolicies {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cold := NewUnit(co(0, 0), 5, 5, policy, UniformBudget(2))
			warm := NewUnit(co(0, 0), 5, 5, policy, UniformBudget(2))
			for call := 0; call < 6; call++ {
				var sites []lattice.Coord
				recover := call > 0 && rng.Intn(3) == 0
				if recover {
					for _, q := range cold.Defects() {
						if rng.Intn(2) == 0 {
							sites = append(sites, q)
						}
					}
				} else {
					sites = randomSites(rng, cold.Spec(), 1+rng.Intn(2))
				}
				do := func(u *Unit) (*StepResult, error) {
					if recover {
						return u.Recover(sites)
					}
					return u.Step(sites)
				}
				resetDistanceMemo()
				want, werr := do(cold)
				got, gerr := do(warm)
				if werr != nil || gerr != nil {
					if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
						t.Fatalf("%v seed %d call %d: errors %v (cold) vs %v (warm)", policy, seed, call, werr, gerr)
					}
					severed++
					continue
				}
				if want.Enlarged {
					grown++
				}
				switch {
				case got.Code.Fingerprint() != want.Code.Fingerprint():
					t.Fatalf("%v seed %d call %d: code fingerprints differ", policy, seed, call)
				case got.DistanceX != want.DistanceX || got.DistanceZ != want.DistanceZ:
					t.Fatalf("%v seed %d call %d: distances %d/%d, want %d/%d", policy, seed, call,
						got.DistanceX, got.DistanceZ, want.DistanceX, want.DistanceZ)
				case !maps.Equal(got.Layers, want.Layers) || got.NumRemoved != want.NumRemoved ||
					got.Enlarged != want.Enlarged || !slices.Equal(got.Defects, want.Defects):
					t.Fatalf("%v seed %d call %d: got %+v, want %+v", policy, seed, call, got, want)
				case got.Spec.memoKey() != want.Spec.memoKey():
					t.Fatalf("%v seed %d call %d: specs differ: %v vs %v", policy, seed, call, got.Spec, want.Spec)
				}
			}
		}
	}
	if grown == 0 {
		t.Error("no call grew a patch; enlargement is not exercised")
	}
	t.Logf("%d calls grew a patch, %d severed it", grown, severed)
}

// TestWarmStepCompilesOnce replays a sequence that balances a boundary cut
// and grows the patch: once the memo has seen the candidates, each Step
// compiles only the code it returns.
func TestWarmStepCompilesOnce(t *testing.T) {
	sequence := [][]lattice.Coord{
		{co(1, 5)},           // boundary data: balancing, then growth
		{co(5, 5)},           // interior data
		{co(4, 4), co(9, 3)}, // interior syndrome and a corner-side cut
	}
	resetDistanceMemo()
	first := NewUnit(co(0, 0), 5, 5, PolicySurfDeformer, UniformBudget(2))
	enlarged := false
	for _, defects := range sequence {
		res, err := first.Step(defects)
		if err != nil {
			t.Fatal(err)
		}
		enlarged = enlarged || res.Enlarged
	}
	if !enlarged || len(first.Spec().Fixes) == 0 {
		t.Fatalf("sequence must balance a cut and grow (enlarged %v, fixes %d)", enlarged, len(first.Spec().Fixes))
	}

	replay := NewUnit(co(0, 0), 5, 5, PolicySurfDeformer, UniformBudget(2))
	for i, defects := range sequence {
		before := obsSpecBuilds.Value()
		if _, err := replay.Step(defects); err != nil {
			t.Fatal(err)
		}
		if got := obsSpecBuilds.Value() - before; got != 1 {
			t.Errorf("warm Step %d compiled %d specs, want 1", i, got)
		}
	}
}

// TestEnlargeCompilesOnlyOnMisses grows a damaged patch on a cleared memo:
// every spec Enlarge judges is a miss, and the code compiled for the
// winning trial is the one it returns, so it compiles exactly one spec per
// miss.
func TestEnlargeCompilesOnlyOnMisses(t *testing.T) {
	s := NewSquareSpec(co(0, 0), 5)
	for _, q := range []lattice.Coord{co(5, 5), co(5, 3)} {
		if err := s.DataQRM(q); err != nil {
			t.Fatal(err)
		}
	}
	resetDistanceMemo()
	builds, misses := obsSpecBuilds.Value(), obsMemoMisses.Value()
	res, err := Enlarge(s, 5, 5, nil, PolicySurfDeformer, UniformBudget(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LayersAdded) == 0 {
		t.Fatal("the damaged patch did not grow")
	}
	if b, m := obsSpecBuilds.Value()-builds, obsMemoMisses.Value()-misses; b != m {
		t.Errorf("Enlarge compiled %d specs for %d memo misses", b, m)
	}
}

// TestDistancesConcurrent has 8 goroutines query the same specs on a cold
// memo; every answer must match a sequential Build.
func TestDistancesConcurrent(t *testing.T) {
	specs := randomUnitSpecs(rand.New(rand.NewSource(3)), PolicySurfDeformer)
	type want struct {
		dx, dz int
		err    string
	}
	wants := make([]want, len(specs))
	for i, s := range specs {
		if c, err := s.Build(); err != nil {
			wants[i].err = err.Error()
		} else {
			wants[i] = want{dx: c.DistanceX(), dz: c.DistanceZ()}
		}
	}
	resetDistanceMemo()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, s := range specs {
				dx, dz, err := s.Distances()
				got := want{dx: dx, dz: dz}
				if err != nil {
					got = want{err: err.Error()}
				}
				if got != wants[i] {
					t.Errorf("spec %d: got %+v, want %+v", i, got, wants[i])
				}
			}
		}()
	}
	wg.Wait()
}
