package defect

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"surfdeformer/internal/lattice"
)

func TestPaperModelParameters(t *testing.T) {
	m := Paper()
	// λ for a d=27 code over one defect duration should reproduce the
	// paper's worked example: λ = 2·27²·ρ·25ms ≈ 0.14.
	lambda := m.PoissonLambda(2*27*27, float64(m.DurationCycles)*m.CycleSeconds)
	if math.Abs(lambda-0.14) > 0.01 {
		t.Errorf("Poisson λ = %.4f, want ≈0.14 (paper §VI)", lambda)
	}
}

func TestPBlockPaperExample(t *testing.T) {
	// Paper: λ = 0.14, Δd = 4, D = 4 gives p_block ≈ 0.0089 < 0.01.
	got := PBlock(0.14, 4, 4)
	if math.Abs(got-0.0089) > 0.001 {
		t.Errorf("PBlock = %.5f, want ≈0.0089", got)
	}
	// Δd = 0 blocks with probability 1 - P(0 events).
	if got := PBlock(0.14, 0, 4); math.Abs(got-(1-math.Exp(-0.14))) > 1e-9 {
		t.Errorf("PBlock(Δd=0) = %v", got)
	}
}

func TestRegionOf(t *testing.T) {
	m := Paper()
	min, max := lattice.Coord{Row: 0, Col: 0}, lattice.Coord{Row: 20, Col: 20}
	region := m.RegionOf(lattice.Coord{Row: 10, Col: 10}, min, max)
	// A strike affects the struck qubit plus its 24 device neighbours: the
	// Manhattan-radius-4 diamond over the qubit checkerboard has 25 sites.
	if len(region) != 25 {
		t.Errorf("region size %d, want 25 (paper: struck qubit + 24 adjacent)", len(region))
	}
	for _, q := range region {
		if lattice.Manhattan(q, lattice.Coord{Row: 10, Col: 10}) > 4 {
			t.Errorf("region site %v outside radius", q)
		}
	}
	// Clipping at the boundary shrinks the region.
	corner := m.RegionOf(lattice.Coord{Row: 0, Col: 0}, min, max)
	if len(corner) >= len(region) {
		t.Error("corner region should be clipped")
	}
}

func TestSamplerRates(t *testing.T) {
	m := Paper()
	s := NewSampler(m, lattice.Coord{Row: 0, Col: 0}, lattice.Coord{Row: 18, Col: 18})
	rng := rand.New(rand.NewSource(1))
	// Expected events over W cycles: sites × ρ × W·1µs.
	cycles := int64(10_000_000) // 10 s
	exp := float64(s.NumSites()) * m.RatePerQubit * 10.0
	total := 0
	trials := 200
	for i := 0; i < trials; i++ {
		total += len(s.SampleWindow(cycles, rng))
	}
	mean := float64(total) / float64(trials)
	if mean < exp*0.8 || mean > exp*1.2 {
		t.Errorf("mean events %.2f, want ≈%.2f", mean, exp)
	}
}

func TestActiveAt(t *testing.T) {
	events := []Event{
		{StartCycle: 100, EndCycle: 200, Region: []lattice.Coord{{Row: 1, Col: 1}}},
		{StartCycle: 150, EndCycle: 300, Region: []lattice.Coord{{Row: 1, Col: 3}}},
	}
	if got := ActiveAt(events, 50); len(got) != 0 {
		t.Errorf("ActiveAt(50) = %v", got)
	}
	if got := ActiveAt(events, 175); len(got) != 2 {
		t.Errorf("ActiveAt(175) = %v, want 2 sites", got)
	}
	if got := ActiveAt(events, 250); len(got) != 1 {
		t.Errorf("ActiveAt(250) = %v, want 1 site", got)
	}
}

// TestActiveAtEndCycleExclusive pins the [StartCycle, EndCycle) contract the
// trajectory engine's epoch boundaries rely on: an event is active at its
// start cycle and inactive at its end cycle.
func TestActiveAtEndCycleExclusive(t *testing.T) {
	events := []Event{
		{StartCycle: 100, EndCycle: 200, Region: []lattice.Coord{{Row: 1, Col: 1}}},
	}
	cases := []struct {
		cycle int64
		want  int
	}{
		{99, 0},  // one before start: inactive
		{100, 1}, // start cycle: active (inclusive)
		{199, 1}, // last active cycle
		{200, 0}, // end cycle: inactive (exclusive)
		{201, 0},
	}
	for _, c := range cases {
		if got := ActiveAt(events, c.cycle); len(got) != c.want {
			t.Errorf("ActiveAt(%d) = %v, want %d site(s)", c.cycle, got, c.want)
		}
	}
}

// TestActiveAtOverlapUnion pins that overlapping events report the union of
// their regions with shared sites deduplicated and the result sorted.
func TestActiveAtOverlapUnion(t *testing.T) {
	shared := lattice.Coord{Row: 3, Col: 3}
	events := []Event{
		{StartCycle: 0, EndCycle: 100, Region: []lattice.Coord{{Row: 1, Col: 1}, shared}},
		{StartCycle: 50, EndCycle: 150, Region: []lattice.Coord{shared, {Row: 5, Col: 5}}},
	}
	got := ActiveAt(events, 75)
	want := []lattice.Coord{{Row: 1, Col: 1}, shared, {Row: 5, Col: 5}}
	if len(got) != len(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union = %v, want %v (sorted, deduplicated)", got, want)
		}
	}
	// Outside the overlap only one event contributes.
	if got := ActiveAt(events, 120); len(got) != 2 {
		t.Errorf("ActiveAt(120) = %v, want the 2 sites of the second event", got)
	}
}

// TestPoissonDeterministic pins that the sampler is a pure function of the
// RNG stream in both branches (inversion and normal approximation).
func TestPoissonDeterministic(t *testing.T) {
	lambdas := []float64{0.5, 5, 29.9, 30.1, 100, 1e4}
	draw := func() []int {
		rng := rand.New(rand.NewSource(7))
		var out []int
		for _, l := range lambdas {
			for i := 0; i < 8; i++ {
				out = append(out, Poisson(l, rng))
			}
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical streams: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestPoissonMoments sanity-checks mean and variance in both branches:
// Poisson(λ) has mean λ and variance λ.
func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, lambda := range []float64{5, 100} {
		const n = 20000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := float64(Poisson(lambda, rng))
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		// Standard error of the mean is sqrt(λ/n); allow 5σ.
		if tol := 5 * math.Sqrt(lambda/n); math.Abs(mean-lambda) > tol {
			t.Errorf("λ=%g: mean %.3f outside %g±%.3f", lambda, mean, lambda, tol)
		}
		if variance < 0.8*lambda || variance > 1.2*lambda {
			t.Errorf("λ=%g: variance %.3f, want ≈%g", lambda, variance, lambda)
		}
	}
}

// TestPoissonHugeLambda pins the overflow guard: astronomically large (and
// infinite) λ must clamp to a sane non-negative count instead of riding the
// implementation-defined float→int conversion into negative values.
func TestPoissonHugeLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, lambda := range []float64{1e12, 1e18, 1e300, math.Inf(1)} {
		for i := 0; i < 32; i++ {
			n := Poisson(lambda, rng)
			if n < 0 {
				t.Fatalf("Poisson(%g) = %d, want non-negative", lambda, n)
			}
			if n > maxPoisson {
				t.Fatalf("Poisson(%g) = %d exceeds cap %d", lambda, n, maxPoisson)
			}
			if lambda >= 1e12 && n == 0 {
				t.Fatalf("Poisson(%g) = 0; huge λ must clamp high, not collapse", lambda)
			}
		}
	}
}

func TestStaticFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	min, max := lattice.Coord{Row: 0, Col: 0}, lattice.Coord{Row: 10, Col: 10}
	faults := StaticFaults(min, max, 7, rng)
	if len(faults) != 7 {
		t.Fatalf("got %d faults, want 7", len(faults))
	}
	seen := map[lattice.Coord]bool{}
	for _, q := range faults {
		if seen[q] {
			t.Error("duplicate fault site")
		}
		seen[q] = true
		if !q.IsData() && !q.IsCheck() {
			t.Errorf("fault %v is not a qubit site", q)
		}
	}
}

// Property: PBlock is monotonically non-increasing in Δd and non-decreasing
// in λ.
func TestQuickPBlockMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lambda := rng.Float64() * 2
		d1 := rng.Intn(10)
		d2 := d1 + 1 + rng.Intn(10)
		if PBlock(lambda, d2, 4) > PBlock(lambda, d1, 4)+1e-12 {
			return false
		}
		return PBlock(lambda+0.5, d1, 4) >= PBlock(lambda, d1, 4)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
