package estimator

import (
	"math"
	"math/rand"
	"testing"

	"surfdeformer/internal/defect"
	"surfdeformer/internal/layout"
	"surfdeformer/internal/program"
)

func TestLambdaModelMonotone(t *testing.T) {
	m := DefaultLambda()
	prev := 1.0
	for d := 3; d <= 27; d += 2 {
		lam := m.Rate(d)
		if lam >= prev {
			t.Errorf("λ(%d) = %v not decreasing", d, lam)
		}
		prev = lam
	}
	if m.Rate(1) != 0.5 {
		t.Error("d<2 must saturate at 0.5")
	}
	if m.RateAt(2e-3, 9) <= m.Rate(9) {
		t.Error("higher physical rate must raise λ")
	}
}

// Fit must recover a model exactly from points it generated, and reject
// grids it cannot fit.
func TestFitRecoversModel(t *testing.T) {
	want := &LambdaModel{P: 3e-3, PThreshold: 8e-3, A: 0.07}
	var pts []CalibrationPoint
	for _, p := range []float64{3e-3, 4e-3, 6e-3} {
		for _, d := range []int{3, 5, 7} {
			pts = append(pts, CalibrationPoint{P: p, D: d, Lambda: want.RateAt(p, d)})
		}
	}
	got, err := Fit(want.P, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got.P != want.P || math.Abs(got.A/want.A-1) > 1e-9 || math.Abs(got.PThreshold/want.PThreshold-1) > 1e-9 {
		t.Errorf("Fit = %+v, want %+v", *got, *want)
	}

	sameD := []CalibrationPoint{{P: 3e-3, D: 5, Lambda: 1e-3}, {P: 4e-3, D: 5, Lambda: 2e-3}, {P: 6e-3, D: 5, Lambda: 4e-3}}
	zero := append(pts[:2:2], CalibrationPoint{P: 6e-3, D: 7, Lambda: 0})
	for name, bad := range map[string][]CalibrationPoint{
		"two points": pts[:2], "one distance": sameD, "zero rate": zero,
	} {
		if m, err := Fit(3e-3, bad); err == nil {
			t.Errorf("%s: Fit = %+v, want an error", name, *m)
		}
	}
}

func TestEstimateProgramOrdering(t *testing.T) {
	// The core Table II shape: at equal d, Surf-Deformer's retry risk is
	// far below ASC-S's; Q3DE reports OverRuntime; larger d reduces risk.
	prog := program.Simon(400, 1000)
	dm := defect.Paper()
	lm := DefaultLambda()
	fws := DefaultFrameworks()
	rng := rand.New(rand.NewSource(1))
	d := 19
	dd := layout.ChooseDeltaD(dm, d, layout.DefaultAlphaBlock)

	surf := EstimateProgram(prog, fws[layout.SurfDeformer], d, dd, dm, lm, 40, rng)
	asc := EstimateProgram(prog, fws[layout.ASCS], d, dd, dm, lm, 40, rng)
	q3de := EstimateProgram(prog, fws[layout.Q3DE], d, dd, dm, lm, 40, rng)

	if !q3de.OverRuntime {
		t.Error("Q3DE on the fixed layout must report OverRuntime")
	}
	if surf.OverRuntime || asc.OverRuntime {
		t.Error("Surf-Deformer and ASC-S must not stall")
	}
	if surf.RetryRisk <= 0 || surf.RetryRisk >= 1 {
		t.Errorf("Surf retry risk %.4f out of range", surf.RetryRisk)
	}
	if asc.RetryRisk < 5*surf.RetryRisk {
		t.Errorf("ASC risk %.4f should be well above Surf risk %.4f", asc.RetryRisk, surf.RetryRisk)
	}
	surf21 := EstimateProgram(prog, fws[layout.SurfDeformer], 21, dd, dm, lm, 40, rng)
	if surf21.RetryRisk >= surf.RetryRisk {
		t.Errorf("d=21 risk %.4f should be below d=19 risk %.4f", surf21.RetryRisk, surf.RetryRisk)
	}
	if surf.PhysicalQubits <= asc.PhysicalQubits {
		t.Error("Surf layout must cost more qubits than ASC at equal d")
	}
}

func TestMinimalDistanceSearch(t *testing.T) {
	prog := program.Grover(9, 80)
	dm := defect.Paper()
	lm := DefaultLambda()
	fw := DefaultFrameworks()[layout.SurfDeformer]
	rng := rand.New(rand.NewSource(2))
	deltaD := func(d int) int { return layout.ChooseDeltaD(dm, d, layout.DefaultAlphaBlock) }
	est, ok := MinimalDistance(prog, fw, 0.01, deltaD, dm, lm, 20, 41, rng)
	if !ok {
		t.Fatalf("no distance up to 41 met 1%% (got %.4f at d=%d)", est.RetryRisk, est.D)
	}
	if est.RetryRisk > 0.01 {
		t.Errorf("returned estimate %.4f misses target", est.RetryRisk)
	}
	// The distance below must fail the target (minimality).
	below := EstimateProgram(prog, fw, est.D-2, deltaD(est.D-2), dm, lm, 20, rng)
	if est.D > 3 && below.RetryRisk <= 0.01 {
		t.Errorf("d=%d already meets target; %d not minimal", est.D-2, est.D)
	}
}

func TestLatticeSurgeryUntreatedIsWorst(t *testing.T) {
	prog := program.Simon(400, 1000)
	dm := defect.Paper()
	lm := DefaultLambda()
	fws := DefaultFrameworks()
	rng := rand.New(rand.NewSource(3))
	d := 19
	ls := EstimateProgram(prog, fws[layout.LatticeSurgery], d, 0, dm, lm, 30, rng)
	surf := EstimateProgram(prog, fws[layout.SurfDeformer], d, 4, dm, lm, 30, rng)
	if ls.RetryRisk < surf.RetryRisk*10 {
		t.Errorf("untreated LS risk %.4f should dwarf Surf risk %.4f", ls.RetryRisk, surf.RetryRisk)
	}
}
