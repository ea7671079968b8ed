package defect

import (
	"math"
	"math/rand"
	"testing"

	"surfdeformer/internal/lattice"
)

func patchSites(d int) []lattice.Coord {
	var sites []lattice.Coord
	for r := 0; r <= 2*d; r++ {
		for c := 0; c <= 2*d; c++ {
			q := lattice.Coord{Row: r, Col: c}
			if q.IsData() || q.IsCheck() {
				sites = append(sites, q)
			}
		}
	}
	return sites
}

func TestSampleLeakageRates(t *testing.T) {
	m := DefaultLeakage()
	sites := patchSites(9)
	rng := rand.New(rand.NewSource(1))
	cycles := int64(200000)
	exp := float64(len(sites)) * m.RatePerQubit * float64(cycles)
	total := 0
	trials := 50
	for i := 0; i < trials; i++ {
		total += len(m.SampleLeakage(sites, cycles, rng))
	}
	mean := float64(total) / float64(trials)
	if mean < exp*0.7 || mean > exp*1.3 {
		t.Errorf("mean leakage events %.2f, want ≈%.2f", mean, exp)
	}
}

func TestLeakageRegionIsLocal(t *testing.T) {
	m := DefaultLeakage()
	rng := rand.New(rand.NewSource(2))
	q := lattice.Coord{Row: 5, Col: 5}
	events := m.SampleLeakage([]lattice.Coord{q}, 1e7, rng)
	if len(events) == 0 {
		t.Skip("no events sampled at this seed")
	}
	for _, e := range events {
		if len(e.Region) != 5 {
			t.Errorf("leakage region %d sites, want qubit + 4 neighbours", len(e.Region))
		}
		for _, site := range e.Region {
			if lattice.Chebyshev(site, q) > 1 {
				t.Errorf("leakage region site %v too far from %v", site, q)
			}
		}
		if e.EndCycle <= e.StartCycle {
			t.Error("leakage event has no duration")
		}
	}
}

func TestDriftedRateClamps(t *testing.T) {
	m := DefaultDrift()
	if got := m.DriftedRate(1e-3); got != 1e-2 {
		t.Errorf("DriftedRate(1e-3) = %v, want 1e-2", got)
	}
	if got := m.DriftedRate(0.2); got != 0.5 {
		t.Errorf("DriftedRate must clamp at 0.5, got %v", got)
	}
}

func TestSampleDrift(t *testing.T) {
	m := DefaultDrift()
	sites := patchSites(5)
	rng := rand.New(rand.NewSource(3))
	events := m.SampleDrift(sites, 10_000_000, 1e-6, rng)
	// 10 s window, rate 1e-3/qubit/s over ~61 sites -> ≈0.6 expected;
	// over many samples some must appear.
	total := len(events)
	for i := 0; i < 30; i++ {
		total += len(m.SampleDrift(sites, 10_000_000, 1e-6, rng))
	}
	if total == 0 {
		t.Error("no drift events over 31 windows")
	}
	for _, e := range events {
		if len(e.Region) != 1 {
			t.Error("drift affects single qubits")
		}
	}
}

func TestClassify(t *testing.T) {
	if Classify(0.5) != SeverityRemove {
		t.Error("50% regions must be removed")
	}
	if Classify(0.01) != SeverityReweight {
		t.Error("mild drift should be reweighted")
	}
	if Classify(DefaultDrift().DriftedRate(1e-3)) != SeverityReweight {
		t.Error("default drift is a reweighting case")
	}
	if Classify(DefaultLeakage().NeighbourRate) != SeverityRemove {
		t.Error("leakage neighbourhoods need removal")
	}
	if Classify(0.09) != SeveritySuper {
		t.Error("rates between the thresholds take the super-stabilizer tier")
	}
}

// TestClassifyAtBoundaryTable is the three-tier boundary table: inclusive
// thresholds, custom boundaries, and default resolution of non-positive
// arguments.
func TestClassifyAtBoundaryTable(t *testing.T) {
	cases := []struct {
		rate, super, remove float64
		want                Severity
	}{
		// Default boundaries (non-positive selects the package constants).
		{0.0, 0, 0, SeverityReweight},
		{SuperThreshold - 1e-9, 0, 0, SeverityReweight},
		{SuperThreshold, 0, 0, SeveritySuper}, // inclusive
		{RemoveThreshold - 1e-9, 0, 0, SeveritySuper},
		{RemoveThreshold, 0, 0, SeverityRemove}, // inclusive
		{0.5, 0, 0, SeverityRemove},
		// Custom boundaries.
		{0.15, 0.1, 0.2, SeveritySuper},
		{0.2, 0.1, 0.2, SeverityRemove},
		{0.05, 0.1, 0.2, SeverityReweight},
		// Partial defaults.
		{0.09, 0, 0.2, SeveritySuper},
		{0.07, 0.05, 0, SeveritySuper},
	}
	for _, tc := range cases {
		if got := ClassifyAt(tc.rate, tc.super, tc.remove); got != tc.want {
			t.Errorf("ClassifyAt(%g, %g, %g) = %v, want %v", tc.rate, tc.super, tc.remove, got, tc.want)
		}
	}
}

// TestValidateThresholds pins the misordered-ladder rejection: resolved
// super >= resolved remove is an error, never a silent tier inversion.
func TestValidateThresholds(t *testing.T) {
	if err := ValidateThresholds(0, 0); err != nil {
		t.Errorf("defaults must validate: %v", err)
	}
	if err := ValidateThresholds(0.05, 0.2); err != nil {
		t.Errorf("ordered custom thresholds must validate: %v", err)
	}
	if err := ValidateThresholds(0.2, 0.1); err == nil {
		t.Error("super above remove must be rejected")
	}
	if err := ValidateThresholds(0.1, 0.1); err == nil {
		t.Error("equal thresholds must be rejected")
	}
	// Default resolution applies before the ordering check.
	if err := ValidateThresholds(0, SuperThreshold/2); err == nil {
		t.Error("custom remove below the default super threshold must be rejected")
	}
	if err := ValidateThresholds(RemoveThreshold*2, 0); err == nil {
		t.Error("custom super above the default remove threshold must be rejected")
	}
	// NaN orders against nothing: it must not slip past the ordering check.
	for _, pair := range [][2]float64{{math.NaN(), 0}, {0, math.NaN()}, {math.NaN(), math.NaN()}} {
		if err := ValidateThresholds(pair[0], pair[1]); err == nil {
			t.Errorf("ValidateThresholds(%v, %v) accepted a NaN threshold", pair[0], pair[1])
		}
	}
}
