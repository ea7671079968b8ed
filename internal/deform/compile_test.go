package deform

import (
	"math/rand"
	"slices"
	"testing"

	"surfdeformer/internal/lattice"
)

// checkBuildMatchesReference requires Build to compile every spec exactly
// as the oracle refBuild does: an equal fingerprint and equal X/Z
// distances (DistanceZ read first, as the refresh left it memoized, against
// a fresh reference search), or an error with the same text; and every code
// Build returns must encode the k = 1 that Params computes from scratch.
func checkBuildMatchesReference(t *testing.T, specs []*Spec) (failed int) {
	t.Helper()
	for i, s := range specs {
		c, err := s.Build()
		rc, rerr := refBuild(s)
		if err != nil || rerr != nil {
			if err == nil || rerr == nil || err.Error() != rerr.Error() {
				t.Fatalf("spec %d %v: Build error %v, reference error %v", i, s, err, rerr)
			}
			failed++
			continue
		}
		if c.Fingerprint() != rc.Fingerprint() {
			t.Fatalf("spec %d %v: fingerprints differ\nbuild: %v\nref:   %v", i, s, c, rc)
		}
		dz, dx := c.DistanceZ(), c.DistanceX()
		if wx, wz := refDistance(rc, lattice.XCheck), refDistance(rc, lattice.ZCheck); dx != wx || dz != wz {
			t.Fatalf("spec %d %v: distances %d/%d, reference %d/%d", i, s, dx, dz, wx, wz)
		}
		if _, k, _, err := c.Params(); err != nil || k != 1 {
			t.Fatalf("spec %d %v: Build returned a code with Params k=%d (err %v)", i, s, k, err)
		}
	}
	return failed
}

// TestBuildMatchesReference runs the oracle over random unit histories under
// every policy, with their boundary-fix and growth trials, and requires the
// error path to be reached.
func TestBuildMatchesReference(t *testing.T) {
	failed, total := 0, 0
	for _, policy := range allPolicies {
		for seed := int64(1); seed <= 6; seed++ {
			specs := randomUnitSpecs(rand.New(rand.NewSource(seed)), policy)
			total += len(specs)
			failed += checkBuildMatchesReference(t, specs)
		}
	}
	if failed == 0 {
		t.Error("no spec failed to build; the error path is not exercised")
	}
	t.Logf("%d specs, %d failed to build", total, failed)
}

// FuzzBuildMatchesReference explores further unit histories and the trials
// next to each of their specs.
func FuzzBuildMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 7, 11, 2024} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		specs := randomUnitSpecs(rng, allPolicies[rng.Intn(len(allPolicies))])
		for _, s := range specs[:len(specs):len(specs)] {
			specs = append(specs, trialSpecs(rng, s)...)
		}
		checkBuildMatchesReference(t, specs)
	})
}

// interiorRemovalSpec returns a d=5 spec with one interior DataQRM: gauge
// pairs and two super-stabilizers, the shape of a typical candidate.
func interiorRemovalSpec(tb testing.TB) *Spec {
	s := NewSquareSpec(co(0, 0), 5)
	if err := s.DataQRM(co(5, 5)); err != nil {
		tb.Fatal(err)
	}
	return s
}

var benchDistance int

// compileAndJudge compiles the spec and reads both distances, the work one
// candidate-distance memo miss does.
func compileAndJudge(tb testing.TB, s *Spec) {
	c, err := s.Build()
	if err != nil {
		tb.Fatal(err)
	}
	benchDistance = c.DistanceX() + c.DistanceZ()
}

// refCompileAndJudge is compileAndJudge by the reference compile and search.
func refCompileAndJudge(tb testing.TB, s *Spec) {
	c, err := refBuild(s)
	if err != nil {
		tb.Fatal(err)
	}
	benchDistance = refDistance(c, lattice.XCheck) + refDistance(c, lattice.ZCheck)
}

// TestSpecBuildAllocs bounds a compile of interiorRemovalSpec plus both
// distance reads. The reference's map-based compile, with Params and four
// chain-graph walks, needed 1,388 allocations; the dense one needs 184
// with Go 1.24 (186 under -race): the code object and its operators, with
// its stabilizer and gauge lists sized once (Code.Reserve), three walks'
// buffers, one sorted data list and the gauge Gram. A return to
// coordinate maps or to Params on the compile path, lists regrown one
// operator at a time, or a data list sorted per read fails the bound;
// TestCodeMemoClearedByEveryMutation (package code) pins that the refresh
// leaves DistanceZ and the data list memoized.
func TestSpecBuildAllocs(t *testing.T) {
	s := interiorRemovalSpec(t)
	allocs := testing.AllocsPerRun(20, func() { compileAndJudge(t, s) })
	t.Logf("%.0f allocs", allocs)
	if allocs > 186 {
		t.Errorf("compiling a d=5 spec with one interior DataQRM and reading both distances does %.0f allocs, want <= 186", allocs)
	}
}

// BenchmarkSpecBuild times one compile plus both distance reads, new
// against the reference: interiorRemovalSpec, and the specs of random unit
// histories in turn (run with -cpu 1).
func BenchmarkSpecBuild(b *testing.B) {
	var history []*Spec
	for _, policy := range allPolicies {
		for seed := int64(1); seed <= 4; seed++ {
			for _, s := range randomUnitSpecs(rand.New(rand.NewSource(seed)), policy) {
				if _, err := refBuild(s); err == nil {
					history = append(history, s)
				}
			}
		}
	}
	single := []*Spec{interiorRemovalSpec(b)}
	for _, tc := range []struct {
		name  string
		specs []*Spec
	}{{"dataqrm-d5", single}, {"history", history}} {
		for _, impl := range []struct {
			name  string
			judge func(testing.TB, *Spec)
		}{{"new", compileAndJudge}, {"ref", refCompileAndJudge}} {
			b.Run(tc.name+"/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.judge(b, tc.specs[i%len(tc.specs)])
				}
			})
		}
	}
}

// TestDataGridChecksMatchLattice pins Build's walk over the rectangle's
// checks to lattice.NewRectPatch: the same checks in the same order, with
// equal centres, types and supports, for every shape up to 9×9 at two
// origins.
func TestDataGridChecksMatchLattice(t *testing.T) {
	for _, origin := range []lattice.Coord{co(0, 0), co(-4, 6)} {
		for dx := 1; dx <= 9; dx++ {
			for dz := 1; dz <= 9; dz++ {
				want := lattice.NewRectPatch(origin, dx, dz).Checks
				g := dataGrid{origin: origin, dx: dx, dz: dz}
				k := 0
				g.forEachCheck(func(center lattice.Coord, typ lattice.CheckType, qs []int) {
					if k >= len(want) {
						t.Fatalf("%dx%d at %v: more than the lattice's %d checks", dx, dz, origin, len(want))
					}
					w := want[k]
					var supp []lattice.Coord
					for _, i := range qs {
						supp = append(supp, g.coord(i))
					}
					if center != w.Center || typ != w.Type || !slices.Equal(supp, w.Support) {
						t.Fatalf("%dx%d at %v: check %d is %v %v %v, lattice has %v %v %v",
							dx, dz, origin, k, center, typ, supp, w.Center, w.Type, w.Support)
					}
					k++
				})
				if k != len(want) {
					t.Fatalf("%dx%d at %v: %d checks, lattice has %d", dx, dz, origin, k, len(want))
				}
			}
		}
	}
}
