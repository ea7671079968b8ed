package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"surfdeformer/internal/estimator"
)

// calibrateGolden runs one Λ-model calibration over the (p, d) grid and
// returns the fitted model with the usable (λ > 0) points it was fitted to.
func calibrateGolden(opt Options, ps []float64, ds []int, targetRSE float64) (*estimator.LambdaModel, []estimator.CalibrationPoint, error) {
	rows, err := Calibrate(opt, ps, ds, SweepEngine{TargetRSE: targetRSE})
	if err != nil {
		return nil, nil, err
	}
	pts := CalibrationPoints(rows)
	m, err := estimator.Fit(ps[0], pts)
	return m, pts, err
}

// goldenFit renders a fitted model and its points as exact float bits.
func goldenFit(m *estimator.LambdaModel, pts []estimator.CalibrationPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "P=%x A=%x p_th=%x\n", m.P, m.A, m.PThreshold)
	for _, pt := range pts {
		fmt.Fprintf(&sb, "p=%x d=%d λ=%x\n", pt.P, pt.D, pt.Lambda)
	}
	return sb.String()
}

// TestCalibrateGolden pins the calibration sweep bit for bit: the fitted
// A, p_th and every measured λ for two quick-scale seeds over the CLI's
// default grid, plus one adaptive (target-RSE) configuration. Seeds
// derive from (Seed, p, d) alone, so any change to the grid loop, the
// seed path or the fit shows up here as changed bits.
func TestCalibrateGolden(t *testing.T) {
	quick := func(seed int64) Options {
		o := QuickOptions()
		o.Seed = seed
		return o
	}
	adaptive := quick(17)
	adaptive.Shots = 20000
	defaultPs, defaultDs := []float64{3e-3, 4e-3, 6e-3}, []int{3, 5, 7}
	cases := []struct {
		name      string
		opt       Options
		ps        []float64
		ds        []int
		targetRSE float64
		want      string
	}{
		{"quick-seed1", quick(1), defaultPs, defaultDs, 0, `P=0x1.89374bc6a7efap-09 A=0x1.ed2532daac383p-06 p_th=0x1.1b3128f26039dp-07
p=0x1.89374bc6a7efap-09 d=3 λ=0x1.e2d1696e34bp-09
p=0x1.89374bc6a7efap-09 d=5 λ=0x1.b563638609cp-11
p=0x1.89374bc6a7efap-09 d=7 λ=0x1.5e29377c272p-10
p=0x1.0624dd2f1a9fcp-08 d=3 λ=0x1.033def332c18p-07
p=0x1.0624dd2f1a9fcp-08 d=5 λ=0x1.a0e0dfc5335p-09
p=0x1.0624dd2f1a9fcp-08 d=7 λ=0x1.b563638609cp-11
p=0x1.89374bc6a7efap-08 d=3 λ=0x1.fabf2c8fd2dp-07
p=0x1.89374bc6a7efap-08 d=5 λ=0x1.08d6e54fbfep-07
p=0x1.89374bc6a7efap-08 d=7 λ=0x1.49c3953899a8p-08
`},
		{"quick-seed5", quick(5), defaultPs, defaultDs, 0, `P=0x1.89374bc6a7efap-09 A=0x1.7578cd33c81cdp-04 p_th=0x1.9ef87aaca0ec4p-07
p=0x1.89374bc6a7efap-09 d=3 λ=0x1.763efd3c409p-08
p=0x1.89374bc6a7efap-09 d=5 λ=0x1.06861182e68p-10
p=0x1.89374bc6a7efap-09 d=7 λ=0x1.5db342686p-13
p=0x1.0624dd2f1a9fcp-08 d=3 λ=0x1.2fe6c7892508p-07
p=0x1.0624dd2f1a9fcp-08 d=5 λ=0x1.e2d817d61dp-09
p=0x1.0624dd2f1a9fcp-08 d=7 λ=0x1.b606bde979ep-10
p=0x1.89374bc6a7efap-08 d=3 λ=0x1.366a0f9714c2p-06
p=0x1.89374bc6a7efap-08 d=5 λ=0x1.0e6de7bd8634p-07
p=0x1.89374bc6a7efap-08 d=7 λ=0x1.289df540b6ep-08
`},
		{"adaptive-seed17", adaptive, []float64{4e-3, 6e-3}, []int{3, 5}, 0.25, `P=0x1.0624dd2f1a9fcp-08 A=0x1.add5ac74d71e2p-05 p_th=0x1.5d9d461ccaac9p-07
p=0x1.0624dd2f1a9fcp-08 d=3 λ=0x1.1b0d4752c7b4p-07
p=0x1.0624dd2f1a9fcp-08 d=5 λ=0x1.ac9209eae42p-09
p=0x1.89374bc6a7efap-08 d=3 λ=0x1.d037d37edce4p-07
p=0x1.89374bc6a7efap-08 d=5 λ=0x1.028eeac95ffcp-07
`},
	}
	for _, tc := range cases {
		m, pts, err := calibrateGolden(tc.opt, tc.ps, tc.ds, tc.targetRSE)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := goldenFit(m, pts); got != tc.want {
			t.Errorf("%s: calibration changed\ngot:\n%swant:\n%s", tc.name, got, tc.want)
		}
	}
}

func TestCalibrateRecoversModel(t *testing.T) {
	// Calibrate against real simulations at measurable settings; the fit
	// must interpolate its own calibration points within a factor ~3.
	opt := QuickOptions()
	opt.Shots, opt.Seed = 3000, 17
	m, pts, err := calibrateGolden(opt, []float64{4e-3, 6e-3}, []int{3, 5}, 0)
	if err != nil {
		t.Fatalf("calibration failed: %v", err)
	}
	if m.PThreshold < 1e-3 || m.PThreshold > 0.1 {
		t.Errorf("fitted threshold %.4g implausible", m.PThreshold)
	}
	for _, pt := range pts {
		pred := m.RateAt(pt.P, pt.D)
		ratio := pred / pt.Lambda
		if ratio < 1.0/4 || ratio > 4 {
			t.Errorf("fit at p=%v d=%d off by %.2fx (measured %v, predicted %v)",
				pt.P, pt.D, ratio, pt.Lambda, pred)
		}
	}
	t.Logf("fitted A=%.3g p_th=%.3g from %d points", m.A, m.PThreshold, len(pts))
}

// The adaptive calibration path must fit a plausible model, obey the
// point-worker determinism contract, and resume from the store without
// recomputing any point.
func TestCalibrateAdaptiveStoreResume(t *testing.T) {
	opt := QuickOptions()
	opt.Shots, opt.Seed = 20000, 17
	opt.Store, opt.Resume = testStore(t), true
	ps, ds := []float64{4e-3, 6e-3}, []int{3, 5}

	opt.Stats = &RunStats{}
	m1, pts1, err := calibrateGolden(opt, ps, ds, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.Computed() != len(ps)*len(ds) || opt.Stats.Skipped() != 0 {
		t.Fatalf("first pass: computed %d, skipped %d", opt.Stats.Computed(), opt.Stats.Skipped())
	}
	if m1.PThreshold < 1e-3 || m1.PThreshold > 0.1 {
		t.Errorf("adaptive fit threshold %.4g implausible", m1.PThreshold)
	}

	// Second pass: everything served from the store, identical fit, and
	// parallel point workers must not change anything.
	opt.Stats = &RunStats{}
	opt.PointWorkers = 4
	m2, pts2, err := calibrateGolden(opt, ps, ds, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.Computed() != 0 || opt.Stats.Skipped() != len(ps)*len(ds) {
		t.Fatalf("resume pass: computed %d, skipped %d", opt.Stats.Computed(), opt.Stats.Skipped())
	}
	if *m1 != *m2 || !reflect.DeepEqual(pts1, pts2) {
		t.Fatalf("resumed fit diverges: %+v vs %+v", m1, m2)
	}
}

// Adaptive early stopping must actually save shots versus the fixed
// budget at an easily-measurable configuration.
func TestCalibrateAdaptiveSavesShots(t *testing.T) {
	opt := QuickOptions()
	opt.Shots, opt.Seed = 200000, 17
	opt.Store = testStore(t)
	if _, err := Calibrate(opt, []float64{6e-3}, []int{3, 5, 7}, SweepEngine{TargetRSE: 0.2}); err != nil {
		t.Fatal(err)
	}
	for _, key := range opt.Store.Keys() {
		pt, _ := opt.Store.Get(key)
		if pt.Shots >= 200000 {
			t.Errorf("point %s burned the full budget (%d shots) despite TargetRSE", key, pt.Shots)
		}
	}
}

// Bad grid values fail before any point runs: no store row, no stats.
func TestCalibrateRejectsBadGrid(t *testing.T) {
	for name, g := range map[string]struct {
		ps []float64
		ds []int
	}{
		"no p":         {nil, []int{3}},
		"no d":         {[]float64{1e-3}, nil},
		"d 0":          {[]float64{1e-3}, []int{3, 0}},
		"d negative":   {[]float64{1e-3}, []int{-3}},
		"p 0":          {[]float64{0}, []int{3}},
		"p negative":   {[]float64{-1}, []int{3}},
		"p 0.7":        {[]float64{1e-3, 0.7}, []int{3}},
		"p NaN":        {[]float64{math.NaN()}, []int{3}},
		"p one half":   {[]float64{0.5}, []int{3}},
		"d 2 after ok": {[]float64{1e-3}, []int{5, 2}},
	} {
		opt := QuickOptions()
		opt.Store, opt.Stats = testStore(t), &RunStats{}
		rows, err := Calibrate(opt, g.ps, g.ds, SweepEngine{})
		if err == nil || rows != nil {
			t.Errorf("%s: Calibrate = %d rows, %v; want a validation error", name, len(rows), err)
		}
		if opt.Store.Len() != 0 || opt.Stats.Computed() != 0 {
			t.Errorf("%s: %d store rows, %d computed points before the validation error",
				name, opt.Store.Len(), opt.Stats.Computed())
		}
	}
}

// A grid too short to fit still renders its rows, then says why there is
// no model; structured output leaves the fit column empty.
func TestRenderCalibrateShortGrid(t *testing.T) {
	opt := QuickOptions()
	opt.Shots = 200
	rows, err := Calibrate(opt, []float64{6e-3}, []int{3, 5}, SweepEngine{})
	if err != nil || len(rows) != 2 {
		t.Fatalf("Calibrate = %d rows, %v", len(rows), err)
	}
	m, fitErr := estimator.Fit(6e-3, CalibrationPoints(rows))
	if fitErr == nil {
		t.Fatalf("two points fitted a model: %+v", *m)
	}
	var sb strings.Builder
	RenderCalibrate(&sb, rows, m, fitErr)
	out := sb.String()
	if lines := strings.Count(out, "\n"); lines != 4 || !strings.Contains(out, "no Λ fit: ") {
		t.Errorf("short-grid table:\n%s", out)
	}
	if tab := CalibrateTable(rows, m); len(tab.Rows) != 2 || tab.Rows[0][5] != "" {
		t.Errorf("short-grid structured table: %+v", tab.Rows)
	}
}
