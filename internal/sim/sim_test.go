package sim

import (
	"math/rand"
	"slices"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
)

func freshCode(t *testing.T, d int) *code.Code {
	t.Helper()
	c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, d))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildDEMBasics(t *testing.T) {
	c := freshCode(t, 3)
	model := noise.Uniform(1e-3)
	dem, err := BuildDEM(c, model, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	// d=3 has 4 Z stabilizers; each contributes rounds+1 detectors.
	wantDets := 4 * (4 + 1)
	if dem.NumDets != wantDets {
		t.Errorf("NumDets = %d, want %d", dem.NumDets, wantDets)
	}
	if len(dem.Mechs) == 0 {
		t.Fatal("no mechanisms")
	}
	if len(dem.P) != len(dem.Mechs) {
		t.Fatalf("%d probabilities for %d mechanisms", len(dem.P), len(dem.Mechs))
	}
	for i, m := range dem.Mechs {
		if p := dem.P[i]; p <= 0 || p >= 1 {
			t.Errorf("mechanism probability %v out of range", p)
		}
		for i := 1; i < len(m.Dets); i++ {
			if m.Dets[i] <= m.Dets[i-1] {
				t.Error("mechanism detectors not sorted unique")
			}
		}
	}
	if dem.plan == nil || len(dem.plan.core.contribs) <= len(dem.Mechs) {
		t.Error("merging should have combined equivalent fault components")
	}
	// The correlated pair is structural: only a model that rates it
	// enumerates it, so uncorrelated plans carry none of its contributions.
	corr, err := BuildDEM(c, model.WithCorrelated(2e-4), 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	hasPair := func(d *DEM) bool {
		return slices.ContainsFunc(d.plan.core.contribs, func(c planContrib) bool { return c.kind == contribCorr })
	}
	if hasPair(dem) || !hasPair(corr) {
		t.Errorf("pair contributions: uncorrelated plan %v, correlated plan %v; want false, true", hasPair(dem), hasPair(corr))
	}
}

func TestDEMZeroNoise(t *testing.T) {
	c := freshCode(t, 3)
	dem, err := BuildDEM(c, noise.Uniform(0), 3, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if len(dem.Mechs) != 0 {
		t.Errorf("zero-noise DEM has %d mechanisms", len(dem.Mechs))
	}
	s := NewSampler(dem)
	flagged, obs := s.Shot(rand.New(rand.NewSource(1)))
	if len(flagged) != 0 || obs {
		t.Error("zero-noise shot produced events")
	}
}

func TestSamplerStatistics(t *testing.T) {
	c := freshCode(t, 3)
	model := noise.Uniform(2e-3)
	dem, err := BuildDEM(c, model, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(dem)
	rng := rand.New(rand.NewSource(42))
	shots := 4000
	totalFlags := 0
	for i := 0; i < shots; i++ {
		flagged, _ := s.Shot(rng)
		totalFlags += len(flagged)
	}
	// Expected detection events per shot: roughly bounded by twice the
	// expected mechanism firings (each fires <= a few detectors).
	mean := float64(totalFlags) / float64(shots)
	exp := expectedFirings(dem)
	if mean <= 0 {
		t.Fatal("sampler produced no detection events at p=2e-3")
	}
	if mean > 6*exp {
		t.Errorf("mean detections %.2f wildly exceeds expected firings %.2f", mean, exp)
	}
}

// expectedFirings returns the mean number of mechanism firings per shot of
// dem: the sum of its mechanism probabilities.
func expectedFirings(dem *DEM) float64 {
	sum := 0.0
	for _, p := range dem.P {
		sum += p
	}
	return sum
}

func TestDeformedCodeDEMBuilds(t *testing.T) {
	// A deformed code with gauges (alternating-round measurements) must
	// produce a consistent DEM in both bases.
	c := deformedCode(t)
	for _, basis := range []lattice.CheckType{lattice.ZCheck, lattice.XCheck} {
		dem, err := BuildDEM(c, noise.Uniform(1e-3), 4, basis)
		if err != nil {
			t.Fatalf("basis %v: %v", basis, err)
		}
		if dem.NumDets == 0 || len(dem.Mechs) == 0 {
			t.Errorf("basis %v: empty DEM", basis)
		}
	}
}

func TestPerRoundRateRoundTrip(t *testing.T) {
	for _, lam := range []float64{1e-5, 1e-3, 0.01, 0.1} {
		for _, r := range []int{1, 5, 20} {
			shot := ShotRate(lam, r)
			back := PerRoundRate(shot, r)
			if diff := back - lam; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("round trip λ=%v R=%d gave %v", lam, r, back)
			}
		}
	}
	if PerRoundRate(0.7, 5) != 0.5 {
		t.Error("saturated rate should clamp to 0.5")
	}
}

// TestDetectorFireRates pins the XOR-of-mechanisms marginal: detector d
// fires with probability ½(1 − ∏(1−2p)) over the mechanisms touching it —
// the baseline the defect detector's rate estimator measures against.
func TestDetectorFireRates(t *testing.T) {
	dem := &DEM{
		NumDets: 3,
		Mechs: []Mechanism{
			{Dets: []int32{0}},
			{Dets: []int32{0, 1}},
			// Detector 2 untouched: rate 0.
		},
		P: []float64{0.1, 0.2},
	}
	got := dem.DetectorFireRates()
	want := []float64{
		0.5 * (1 - (1-2*0.1)*(1-2*0.2)), // 0.26
		0.5 * (1 - (1 - 2*0.2)),         // 0.2
		0,
	}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("detector %d fire rate %v, want %v", i, got[i], want[i])
		}
	}
	// On a real DEM, rates are positive and agree with empirical firing.
	c := freshCode(t, 3)
	real, err := BuildDEM(c, noise.Uniform(5e-3), 3, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	rates := real.DetectorFireRates()
	if len(rates) != real.NumDets {
		t.Fatalf("%d rates for %d detectors", len(rates), real.NumDets)
	}
	for i, r := range rates {
		if r <= 0 || r >= 0.5 {
			t.Errorf("detector %d marginal %v outside (0, 0.5)", i, r)
		}
	}
}
