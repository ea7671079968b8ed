package experiments

import (
	"fmt"
	"io"
	"math"

	"surfdeformer/internal/code"
	"surfdeformer/internal/decoder"
	"surfdeformer/internal/estimator"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/sim"
)

// CalibrateRow is one measured (p, d) point of the Λ-model calibration:
// memory-Z and memory-X of a fresh distance-d patch under uniform noise p,
// and their union per-cycle rate 1 − (1−λZ)(1−λX) as the point's Lambda.
type CalibrateRow struct {
	estimator.CalibrationPoint
	Z, X sim.MemoryResult
}

// calConfig is the store identity of one calibration point. The shot
// budget accumulates and is deliberately absent (see DESIGN.md §7).
type calConfig struct {
	P         float64 `json:"p"`
	D         int     `json:"d"`
	Rounds    int     `json:"rounds"`
	Decoder   string  `json:"decoder"`
	Seed      int64   `json:"seed"`
	TargetRSE float64 `json:"target_rse,omitempty"`
}

// Calibrate measures every (p, d) point of the calibration grid, p-major,
// on the union-find decoder — the data estimator.Fit turns into a Λ model.
// Points fan out over the point-level pool and derive their seeds from
// (Options.Seed, p, d) alone, so rows are bit-identical for any worker
// count and resume order. eng.TargetRSE stops each point early; with
// Options.Store each basis half is committed (kind "calibrate") and
// Options.Resume serves or tops it up. Distances below 3, rates outside
// (0, 0.5) and a negative or NaN eng.TargetRSE fail before any point runs;
// isolated point failures return the finished rows with the error
// (runGrid).
func Calibrate(opt Options, ps []float64, ds []int, eng SweepEngine) ([]CalibrateRow, error) {
	if len(ps) == 0 || len(ds) == 0 {
		return nil, fmt.Errorf("experiments: calibration needs at least one p and one d")
	}
	if err := eng.validate(); err != nil {
		return nil, err
	}
	for _, d := range ds {
		if d < 3 {
			return nil, fmt.Errorf("experiments: calibration distance %d too small (need d ≥ 3)", d)
		}
	}
	for _, p := range ps {
		if !(p > 0 && p < 0.5) {
			return nil, fmt.Errorf("experiments: calibration physical rate %g outside (0, 0.5)", p)
		}
	}
	var grid []estimator.CalibrationPoint
	for _, p := range ps {
		for _, d := range ds {
			grid = append(grid, estimator.CalibrationPoint{P: p, D: d})
		}
	}
	shots := eng.shots(opt)
	return runGrid(opt, grid, func(pt estimator.CalibrationPoint) (CalibrateRow, error) {
		c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, pt.D))
		z, x, lambda, fromStore, err := sim.RunMemoryBothStored(c, noise.Uniform(pt.P), sim.RunOptions{
			Rounds:    opt.Rounds,
			Factory:   decoder.UnionFindFactory(),
			Shots:     shots,
			Workers:   eng.Workers,
			TargetRSE: eng.TargetRSE,
			Seed:      opt.pointSeed(kindCalibrate, int64(math.Round(pt.P*1e9)), int64(pt.D)),
			Ctx:       opt.Ctx,
		}, sim.StoreOptions{
			Store:  opt.Store,
			Resume: opt.Resume,
			Kind:   "calibrate",
			Config: calConfig{P: pt.P, D: pt.D, Rounds: opt.Rounds,
				Decoder: "uf", Seed: opt.Seed, TargetRSE: eng.TargetRSE},
		})
		if err != nil {
			return CalibrateRow{}, err
		}
		if fromStore {
			opt.Stats.AddSkipped()
		} else {
			opt.Stats.AddComputed()
		}
		pt.Lambda = lambda
		return CalibrateRow{CalibrationPoint: pt, Z: *z, X: *x}, nil
	})
}

// CalibrationPoints returns the rows estimator.Fit can use: those with a
// positive measured rate (a point without failures says nothing on the
// fit's log scale), in row order.
func CalibrationPoints(rows []CalibrateRow) []estimator.CalibrationPoint {
	var pts []estimator.CalibrationPoint
	for _, r := range rows {
		if r.Lambda > 0 {
			pts = append(pts, r.CalibrationPoint)
		}
	}
	return pts
}

// RenderCalibrate prints the calibration table — per-basis and combined
// measured rates beside the fitted model's rate — and then the fitted
// model, or why there is none (m == nil, fitErr set).
func RenderCalibrate(w io.Writer, rows []CalibrateRow, m *estimator.LambdaModel, fitErr error) {
	fmt.Fprintf(w, "%-10s %-4s %-12s %-12s %-12s %-12s %-14s %s\n",
		"p", "d", "λZ/cycle", "λX/cycle", "λ/cycle", "fit λ/cycle", "failures", "shots")
	early := false
	for _, r := range rows {
		fit := "-"
		if m != nil {
			fit = fmt.Sprintf("%.3e", m.RateAt(r.P, r.D))
		}
		stopped := ""
		if r.Z.EarlyStopped || r.X.EarlyStopped {
			stopped, early = "*", true
		}
		fmt.Fprintf(w, "%-10.1e %-4d %-12.3e %-12.3e %-12.3e %-12s %-14s %d+%d%s\n",
			r.P, r.D, r.Z.PerRound, r.X.PerRound, r.Lambda, fit,
			fmt.Sprintf("%d+%d", r.Z.Failures, r.X.Failures), r.Z.Shots, r.X.Shots, stopped)
	}
	if early {
		fmt.Fprintln(w, "(* = point stopped early at the target RSE)")
	}
	if fitErr != nil {
		fmt.Fprintf(w, "no Λ fit: %v\n", fitErr)
		return
	}
	fmt.Fprintf(w, "fitted Λ-model: A = %.4g, p_th = %.4g (from %d points)\n",
		m.A, m.PThreshold, len(CalibrationPoints(rows)))
}
