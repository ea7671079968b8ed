// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII). Each experiment returns structured rows so tests can
// assert the paper's qualitative claims, and renders the same table/series
// the paper reports.
//
// Every evaluation grid is a set of independent points, and the package
// treats them that way: each point derives all of its randomness from
// (Options.Seed, point content) via mc.DeriveSeed — never from a shared
// generator — so results are bit-identical regardless of grid order,
// subsetting, Options.PointWorkers, or resume order. Grids run through
// runGrid, which fans the points out over a point-level worker pool
// (mc.ForEach) and keeps the finished rows when single points fail. When
// Options.Store is set, grids commit each completed point to the
// persistent result store keyed by a canonical hash of its configuration;
// Options.Resume then serves completed points from the store instead of
// recomputing them, and memory-type points whose stored shots fall short
// of the requested budget compute only the remainder under fresh segment
// streams (see DESIGN.md §7).
//
// Absolute numbers depend on decoder and scale (see DESIGN.md §1 and
// EXPERIMENTS.md); the shapes — who wins, by what factor, where crossovers
// sit — are the reproduction target.
package experiments

import (
	"context"
	"fmt"
	"io"

	"surfdeformer/internal/decoder"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/estimator"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/layout"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/program"
	"surfdeformer/internal/sim"
	"surfdeformer/internal/store"
)

// Options tunes experiment cost. Quick settings are used by unit tests and
// the testing.B benchmarks; the CLI defaults are larger.
type Options struct {
	Shots  int   // Monte-Carlo shots per memory experiment
	Trials int   // defect-timeline / sampling trials
	Rounds int   // QEC rounds per memory experiment
	Seed   int64 // RNG seed
	Quick  bool  // shrink distances and sweeps for CI-speed runs
	// FitLosses derives the per-event distance-loss constants of the
	// retry-risk estimator from the real deformation engine (FitLoss)
	// instead of the recorded defaults. Slower but self-contained.
	FitLosses bool

	// Ctx, when non-nil, cancels a running grid cooperatively at point and
	// shard boundaries: completed points stay committed to the store,
	// in-flight points drain and are discarded, and the experiment returns
	// an error wrapping mc.ErrCanceled. A nil Ctx is never canceled.
	Ctx context.Context
	// PointWorkers sizes the grid-point worker pool (<= 1 runs points
	// serially). Results are bit-identical for any value: every point is
	// seeded from its own content, never from execution order.
	PointWorkers int
	// Store, when non-nil, persists each completed point to the
	// content-addressed result store; Resume additionally serves points the
	// store already holds instead of recomputing them.
	Store  *store.Store
	Resume bool
	// Stats, when non-nil, counts computed versus store-served points.
	Stats *RunStats
	// Progress, when non-nil, streams point-pool completion (points
	// done/total, throughput, ETA) to its writer while a grid runs.
	// Observation-only: it never affects results.
	Progress *obs.Progress

	// AdaptiveStop lets TrajectoryScan retire an arm early once its
	// survival confidence interval separates from every other arm's: the
	// scan runs trajectories in barrier-synchronized blocks and, at each
	// barrier, stops any arm whose Wilson failure CI over its committed
	// in-order prefix is disjoint from every other arm's. Decisions depend
	// only on committed prefixes, so they are bit-identical for any
	// PointWorkers value; stopped arms keep their store rows (the per-
	// trajectory identity is unchanged), so adaptive and fixed runs share
	// the store. No effect on experiments other than the trajectory scan.
	AdaptiveStop bool
	// MinTrials is the minimum trajectories every arm must complete before
	// AdaptiveStop may retire it (<= 0 selects DefaultMinTrials; clamped
	// to Trials).
	MinTrials int
}

// checkTrials rejects a Trials below 1 for an experiment that draws that
// many samples, before any of its points runs: no samples would make every
// mean and risk column NaN or zero.
func (o Options) checkTrials(what string) error {
	if o.Trials < 1 {
		return fmt.Errorf("experiments: %s needs at least 1 trial, got %d", what, o.Trials)
	}
	return nil
}

// DefaultMinTrials is the per-arm floor of trajectories before adaptive
// stopping may retire an arm (Options.MinTrials <= 0 selects it).
const DefaultMinTrials = 8

// Defaults returns CLI-scale options.
func Defaults() Options {
	return Options{Shots: 20000, Trials: 100, Rounds: 8, Seed: 1}
}

// QuickOptions returns test-scale options.
func QuickOptions() Options {
	return Options{Shots: 1500, Trials: 20, Rounds: 4, Seed: 1, Quick: true}
}

// ---------------------------------------------------------------------------
// Table I: instruction sets
// ---------------------------------------------------------------------------

// Table1 renders the instruction-set comparison.
func Table1(w io.Writer) {
	fmt.Fprintf(w, "%-16s | %-52s | %s\n", "Method", "Extended instructions over LS", "Supported operations")
	fmt.Fprintln(w, strRepeat("-", 120))
	for _, set := range deform.InstructionSets() {
		ext := "N/A"
		if len(set.Extended) > 0 {
			ext = ""
			for i, in := range set.Extended {
				if i > 0 {
					ext += ", "
				}
				ext += string(in)
			}
		}
		ops := ""
		for i, op := range set.Operations {
			if i > 0 {
				ops += ", "
			}
			ops += op
		}
		fmt.Fprintf(w, "%-16s | %-52s | %s\n", set.Method, ext, ops)
	}
}

// ---------------------------------------------------------------------------
// Fig. 11a: logical error rate vs number of defective qubits
// ---------------------------------------------------------------------------

// Fig11aRow is one measurement of the defect-removal study.
type Fig11aRow struct {
	D           int
	NumDefects  int
	UntreatedLE float64 // per-cycle, defects left in the code
	RemovedLE   float64 // per-cycle, defects removed by Surf-Deformer
}

// fig11aConfig is the store identity of one (d, k) point.
type fig11aConfig struct {
	D       int   `json:"d"`
	K       int   `json:"k"`
	Samples int   `json:"samples"`
	Shots   int   `json:"shots"`
	Rounds  int   `json:"rounds"`
	Seed    int64 `json:"seed"`
}

// Fig11a measures the logical error rate of codes with defective qubits
// left untreated (decoder uninformed) versus removed by the Surf-Deformer
// defect-removal subroutine. Each point averages a few fault patterns;
// patterns that sever the patch outright are skipped for the removed curve
// (they saturate both curves and carry no comparative information).
func Fig11a(opt Options) ([]Fig11aRow, error) {
	ds := []int{9}
	counts := []int{2, 4, 6, 10}
	samples := 3
	if opt.Quick {
		ds = []int{5}
		counts = []int{1, 3}
		samples = 2
	}
	type point struct{ d, k int }
	var grid []point
	for _, d := range ds {
		for _, k := range counts {
			grid = append(grid, point{d, k})
		}
	}
	return runGrid(opt, grid, func(pt point) (Fig11aRow, error) {
		cfg := fig11aConfig{D: pt.d, K: pt.k, Samples: samples, Shots: opt.Shots, Rounds: opt.Rounds, Seed: opt.Seed}
		return cachedRow(opt, "fig11a", cfg, func() (Fig11aRow, error) {
			return fig11aPoint(opt, pt.d, pt.k, samples)
		})
	})
}

// memoryOpts configures the fixed-budget memory-Z runs of the figure
// grids: Shots shots of Rounds rounds decoded by union-find, canceled with
// Ctx like every other Monte-Carlo run of a grid.
func (o Options) memoryOpts(seed int64) sim.RunOptions {
	return sim.RunOptions{Rounds: o.Rounds, Basis: lattice.ZCheck, Factory: decoder.UnionFindFactory(),
		Shots: o.Shots, Seed: seed, Ctx: o.Ctx}
}

// fig11aPoint measures one (d, k) configuration. All randomness — fault
// patterns and Monte-Carlo streams — derives from (Seed, d, k, sample).
func fig11aPoint(opt Options, d, k, samples int) (Fig11aRow, error) {
	rng := opt.pointRNG(kindFig11a, int64(d), int64(k))
	var uSum, rSum float64
	uN, rN := 0, 0
	for s := 0; s < samples; s++ {
		base := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, d)
		min, max := base.Bounds()
		defects := defect.StaticFaults(min, max, k, rng)
		nominal := noise.Uniform(noise.DefaultPhysical)
		defModel := nominal.WithDefects(defects, noise.DefaultDefectRate)

		// Untreated: full code, hot qubits, uninformed decoder.
		untreated, err := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, d).Build()
		if err != nil {
			return Fig11aRow{}, err
		}
		resU, err := sim.RunMemoryOpts(untreated, defModel, nominal,
			opt.memoryOpts(opt.pointSeed(kindFig11a, int64(d), int64(k), int64(s), 0)))
		if err != nil {
			return Fig11aRow{}, err
		}
		uSum += resU.PerRound
		uN++

		// Removed: Algorithm 1, nominal noise on surviving qubits.
		spec := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, d)
		if err := deform.ApplyDefects(spec, defects, deform.PolicySurfDeformer); err != nil {
			continue
		}
		removedCode, err := spec.Build()
		if err != nil {
			continue // severed pattern
		}
		resR, err := sim.RunMemoryOpts(removedCode, nominal, nil,
			opt.memoryOpts(opt.pointSeed(kindFig11a, int64(d), int64(k), int64(s), 1)))
		if err != nil {
			return Fig11aRow{}, err
		}
		rSum += resR.PerRound
		rN++
	}
	row := Fig11aRow{D: d, NumDefects: k}
	if uN > 0 {
		row.UntreatedLE = uSum / float64(uN)
	}
	if rN > 0 {
		row.RemovedLE = rSum / float64(rN)
	} else {
		row.RemovedLE = 0.5 // every pattern severed the patch
	}
	return row, nil
}

// RenderFig11a prints the series.
func RenderFig11a(w io.Writer, rows []Fig11aRow) {
	fmt.Fprintf(w, "%-4s %-10s %-22s %-22s\n", "d", "#defects", "untreated λ/cycle", "surf-deformer λ/cycle")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4d %-10d %-22.3e %-22.3e\n", r.D, r.NumDefects, r.UntreatedLE, r.RemovedLE)
	}
}

// ---------------------------------------------------------------------------
// Fig. 11b: code distance after removal, ASC-S vs Surf-Deformer
// ---------------------------------------------------------------------------

// Fig11bRow is one point of the distance-retention study.
type Fig11bRow struct {
	D          int
	NumDefects int
	ASCMean    float64
	SurfMean   float64
}

// Fig11b compares remaining code distance after defect removal between
// ASC-S and Surf-Deformer across defect counts and code sizes.
func Fig11b(opt Options) ([]Fig11bRow, error) {
	ds := []int{9, 15, 21}
	counts := []int{5, 10, 20, 30, 40, 50}
	samples := 5
	if opt.Quick {
		ds = []int{9}
		counts = []int{4, 10}
		samples = 3
	}
	type point struct{ d, k int }
	var grid []point
	for _, d := range ds {
		for _, k := range counts {
			grid = append(grid, point{d, k})
		}
	}
	return runGrid(opt, grid, func(pt point) (Fig11bRow, error) {
		rng := opt.pointRNG(kindFig11b, int64(pt.d), int64(pt.k))
		ascSum, surfSum := 0.0, 0.0
		for s := 0; s < samples; s++ {
			base := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, pt.d)
			min, max := base.Bounds()
			defects := defect.StaticFaults(min, max, pt.k, rng)
			ascSum += float64(removalDistance(defects, pt.d, deform.PolicyASC))
			surfSum += float64(removalDistance(defects, pt.d, deform.PolicySurfDeformer))
		}
		return Fig11bRow{D: pt.d, NumDefects: pt.k,
			ASCMean: ascSum / float64(samples), SurfMean: surfSum / float64(samples)}, nil
	})
}

// removalDistance applies the policy and returns the remaining min
// distance; a severed patch counts as distance 0.
func removalDistance(defects []lattice.Coord, d int, policy deform.Policy) int {
	spec := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, d)
	if err := deform.ApplyDefects(spec, defects, policy); err != nil {
		return 0
	}
	c, err := spec.Build()
	if err != nil {
		return 0
	}
	return c.Distance()
}

// RenderFig11b prints the series.
func RenderFig11b(w io.Writer, rows []Fig11bRow) {
	fmt.Fprintf(w, "%-4s %-10s %-12s %-12s\n", "d", "#defects", "asc-s", "surf-deformer")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4d %-10d %-12.2f %-12.2f\n", r.D, r.NumDefects, r.ASCMean, r.SurfMean)
	}
}

func strRepeat(s string, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += s
	}
	return out
}

// shared helpers for the program-level experiments

func paperDistancePairs() map[string][2]int {
	return map[string][2]int{
		"simon-400-1000": {19, 21},
		"simon-900-1500": {21, 23},
		"rca-225-500":    {21, 23},
		"rca-729-100":    {21, 23},
		"qft-25-160":     {23, 25},
		"qft-100-20":     {25, 27},
		"grover-9-80":    {23, 25},
		"grover-16-2":    {25, 27},
	}
}

func estimators(opt Options) (*defect.Model, *estimator.LambdaModel, map[layout.Scheme]estimator.Framework) {
	dm := defect.Paper()
	if opt.FitLosses {
		d, budget, samples := 15, 4, 10
		if opt.Quick {
			d, samples = 9, 4
		}
		rng := opt.pointRNG(kindFit)
		return dm, estimator.DefaultLambda(), estimator.FittedFrameworks(d, budget, samples, dm, rng)
	}
	return dm, estimator.DefaultLambda(), estimator.DefaultFrameworks()
}

var _ = program.Benchmarks // referenced by program-level experiment files
