// Command surfdeform regenerates the tables and figures of the Surf-Deformer
// paper's evaluation (§VII).
//
// Usage:
//
//	surfdeform [flags] <experiment>
//
// Experiments: table1, table2, fig11a, fig11b, fig11c, fig12, fig13a,
// fig13b, fig14a, fig14b, sweep, traj, pipeline, calibrate, all.
//
// Flags tune the Monte-Carlo budget; -quick shrinks every sweep to smoke-
// test scale. Grid experiments run their points concurrently with
// -point-workers and persist/resume per-point results with -store and
// -resume (results are bit-identical for any worker count and any resume
// order; see DESIGN.md §7). -store-ls and -store-gc inspect and compact a
// store without running anything. calibrate measures memory-Z/X over the
// -p × -d grid and fits the Λ extrapolation model to it:
//
//	surfdeform -d 3,5,7 -p 2e-3,4e-3 -shots 20000 -rounds 6 calibrate
//	surfdeform -target-rse 0.1 -shots 2000000 -point-workers 4 -store cal.jsonl -resume calibrate
//
// Observability (DESIGN.md §10): -progress streams grid completion to
// stderr, -stats prints the full obs metrics snapshot after the run,
// -debug-addr serves live pprof/expvar, and for traj, -trace-out writes
// one JSONL event per epoch transition of every computed trajectory
// (-trace-check validates such a file against the schema and exits). None
// of these change results.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"surfdeformer/internal/cliutil"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/estimator"
	"surfdeformer/internal/experiments"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/report"
	"surfdeformer/internal/sim"
	"surfdeformer/internal/traj"
)

// main is a thin exit-code shim: all work happens in realMain so that its
// deferred cleanups — CPU-profile flush, heap-profile write, trace-file
// close, store sync+close — execute on every path, including errors and
// interrupts (os.Exit would skip them). Usage errors exit 2 before any
// cleanup is registered; run errors map to the documented codes
// (interrupted/partial → 3, see DESIGN.md §11).
func main() {
	os.Exit(cliutil.ReportRunError("surfdeform", os.Stderr, realMain()))
}

func realMain() (err error) {
	opt := experiments.Defaults()
	var lay trajLayoutFlags
	flag.IntVar(&opt.Shots, "shots", opt.Shots, "Monte-Carlo shots per memory experiment")
	flag.IntVar(&opt.Trials, "trials", opt.Trials, "defect-timeline trials")
	flag.IntVar(&opt.Rounds, "rounds", opt.Rounds, "QEC rounds per memory experiment")
	flag.Int64Var(&opt.Seed, "seed", opt.Seed, "RNG seed")
	flag.BoolVar(&opt.Quick, "quick", false, "shrink sweeps to smoke-test scale")
	formatArg := flag.String("format", "text", "output format: text, csv, json")
	flag.BoolVar(&opt.FitLosses, "fitlosses", false, "fit per-event distance losses from the deformation engine instead of defaults")
	flag.IntVar(&opt.PointWorkers, "point-workers", 1, "grid points run concurrently (never changes results)")
	storePath := flag.String("store", "", "persist per-point results to this JSONL store")
	flag.BoolVar(&opt.Resume, "resume", false, "serve points already complete in -store instead of recomputing")
	storeSync := cliutil.AddStoreSyncFlag()
	storeLS := flag.Bool("store-ls", false, "list the contents of -store and exit")
	storeGC := flag.Bool("store-gc", false, "compact -store (merge segments, drop corrupt lines) and exit")
	targetRSE := flag.Float64("target-rse", 0, "adaptive early stopping for sweep/calibrate points (0 = fixed budget)")
	calDs, calPs := []int{3, 5, 7}, []float64{3e-3, 4e-3, 6e-3}
	flag.Func("d", "calibrate: comma-separated code distances (default 3,5,7)", func(s string) (err error) {
		calDs, err = cliutil.ParseInts(s)
		return err
	})
	flag.Func("p", "calibrate: comma-separated physical error rates (default 3e-3,4e-3,6e-3)", func(s string) (err error) {
		calPs, err = cliutil.ParseFloats(s)
		return err
	})
	reweightFactor := flag.Float64("reweight-factor", 0, "traj: rate-multiplier gate of the decoder-prior reweight tier (0 = default)")
	var tier trajTierFlags
	flag.Float64Var(&tier.deviceRate, "device-defect-rate", 0, "traj: fabrication defect probability per data qubit and coupler (0 = pristine device; one device sampled per trajectory seed, identical across arms)")
	flag.Float64Var(&tier.superThreshold, "super-threshold", 0, "traj: severity boundary between the reweight and bandage (super-stabilizer) tiers (0 = default)")
	flag.Float64Var(&tier.halflife, "halflife", 0, "traj: exponential half-life, in cycles, of the detector's rate estimator (0 = unweighted window)")
	flag.IntVar(&lay.patches, "patches", 1, "traj: logical patches in the layout (1 = single-patch closed loop; >1 adds routing channels and a lattice-surgery schedule)")
	flag.StringVar(&lay.program, "program", "", "traj: benchmark whose CNOTs the layout schedules as lattice surgery (simon, rca, qft, grover; needs -patches >= 2)")
	flag.IntVar(&lay.ops, "ops", 0, "traj: explicit surgery-schedule length (0 = a layout-sized excerpt of -program)")
	flag.BoolVar(&opt.AdaptiveStop, "adaptive-stop", false, "traj: retire an arm once its failure CI separates from every other arm's (deterministic; store-compatible with fixed runs)")
	flag.IntVar(&opt.MinTrials, "min-trials", 0, "traj: per-arm trajectory floor before -adaptive-stop may retire an arm (0 = default)")
	cacheStats := flag.Bool("stats", false, "report the full obs metrics snapshot (DEM cache, decoder, store, traj counters) on stderr after the run")
	progress := flag.Bool("progress", false, "report grid progress (points done, throughput, ETA) on stderr while running")
	traceOut := flag.String("trace-out", "", "traj: write one JSONL trace event per epoch transition to this file")
	traceCheck := flag.String("trace-check", "", "validate a -trace-out file against the trace schema and exit")
	prof := cliutil.AddProfileFlags()
	flag.Parse()
	format, err := report.ParseFormat(*formatArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "surfdeform: %v\n", err)
		os.Exit(2)
	}
	if *traceCheck != "" {
		f, terr := os.Open(*traceCheck)
		if terr != nil {
			return terr
		}
		defer f.Close()
		n, terr := obs.ValidateTrace(f)
		if terr != nil {
			return fmt.Errorf("trace %s: %w", *traceCheck, terr)
		}
		fmt.Printf("surfdeform: trace %s OK (%d events)\n", *traceCheck, n)
		return nil
	}
	if opt.Quick {
		q := experiments.QuickOptions()
		q.Seed = opt.Seed
		q.FitLosses = opt.FitLosses
		q.PointWorkers = opt.PointWorkers
		q.Resume = opt.Resume
		q.AdaptiveStop = opt.AdaptiveStop
		q.MinTrials = opt.MinTrials
		// Explicitly-set budget flags survive the quick preset, so smoke
		// runs can still size themselves (e.g. -quick -trials 2 traj).
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "shots":
				q.Shots = opt.Shots
			case "trials":
				q.Trials = opt.Trials
			case "rounds":
				q.Rounds = opt.Rounds
			}
		})
		opt = q
	}
	if *storePath != "" {
		st, serr := cliutil.OpenStore("surfdeform", *storePath, *storeSync)
		if serr != nil {
			return serr
		}
		defer st.Close()
		opt.Store = st
	}
	if *storeLS || *storeGC {
		if err := cliutil.StoreMaintenance("surfdeform", opt.Store, os.Stdout, *storeLS, *storeGC); err != nil {
			fmt.Fprintf(os.Stderr, "surfdeform: %v\n", err)
			os.Exit(2)
		}
		return nil
	}
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	name := flag.Arg(0)

	// SIGINT/SIGTERM cancel the context: grids stop dispatching at the
	// next point boundary, in-flight points drain, and the deferred store
	// Close syncs every committed point before the process exits 3.
	ctx, stopSignals := cliutil.SignalContext("surfdeform", os.Stderr)
	defer stopSignals()
	opt.Ctx = ctx

	stop, err := prof.Start("surfdeform")
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	var tracer *obs.Tracer
	if *traceOut != "" {
		tf, terr := os.Create(*traceOut)
		if terr != nil {
			return terr
		}
		defer tf.Close()
		tracer = obs.NewTracer(tf)
		defer func() {
			if terr := tracer.Err(); terr != nil && err == nil {
				err = fmt.Errorf("trace %s: %w", *traceOut, terr)
			}
		}()
	}
	// Trajectory grids advance in simulated cycles; everything else is
	// paced by committed Monte-Carlo shots.
	unitsLabel, unitsCounter := "shots", "mc.shots_committed"
	if name == "traj" {
		unitsLabel, unitsCounter = "cycles", "traj.cycles"
	}
	opt.Progress = cliutil.NewProgress(*progress, unitsLabel, unitsCounter)

	opt.Stats = &experiments.RunStats{}
	start := time.Now()
	runErr := run(name, opt, format, *targetRSE, *reweightFactor, calPs, calDs, lay, tier, tracer)
	if runErr != nil && cliutil.ExitCode(runErr) != cliutil.ExitPartial {
		return runErr
	}
	if opt.Store != nil {
		fmt.Fprintf(os.Stderr, "[%s computed %d point(s), skipped %d (store %s)]\n",
			name, opt.Stats.Computed(), opt.Stats.Skipped(), *storePath)
	}
	cliutil.WarnDegraded("surfdeform", os.Stderr)
	if *cacheStats {
		// The counters are monotone across the cache's wholesale clears
		// (clears are themselves counted), so this snapshot reflects the
		// whole run even when a long trajectory churned the working set.
		cs := sim.SharedDEMCache().Stats()
		fmt.Fprintf(os.Stderr, "[dem cache: %d hits, %d misses, %d clears, %d entries]\n",
			cs.Hits, cs.Misses, cs.Clears, cs.Entries)
		cliutil.PrintSnapshot(os.Stderr)
	}
	if runErr != nil {
		// Interrupted or partially failed: everything completed so far is
		// committed (and synced by the deferred Close); tell the user how
		// to compute only what is missing.
		cliutil.ResumeHint("surfdeform", os.Stderr, *storePath, opt.Resume)
		fmt.Fprintf(os.Stderr, "[%s stopped after %v]\n", name, time.Since(start).Round(time.Millisecond))
		return runErr
	}
	fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}

// trajLayoutFlags carries the layout axis of the traj experiment from the
// flag set into run: with -patches >= 2 the trajectory simulates the whole
// floorplan — N patches, the routing channels between them, and a
// lattice-surgery schedule replanned around defects. Any setting other than
// the single-patch default (-patches 1, no -program, no -ops) builds a
// layout config, so out-of-range values fail config validation instead of
// silently running one patch.
type trajLayoutFlags struct {
	patches int
	program string
	ops     int
}

// trajTierFlags carries the three-tier-ladder axis of the traj experiment:
// a fabrication-defect device model sampled per trajectory, the severity
// boundary of the bandage tier, and the detector estimator's half-life.
type trajTierFlags struct {
	deviceRate     float64
	superThreshold float64
	halflife       float64
}

func run(name string, opt experiments.Options, format report.Format, targetRSE, reweightFactor float64, calPs []float64, calDs []int, lay trajLayoutFlags, tier trajTierFlags, tracer *obs.Tracer) error {
	w := os.Stdout
	switch name {
	case "table1":
		experiments.Table1(w)
		return nil
	case "table2":
		rows, err := experiments.Table2(opt)
		return show(w, format, rows, err, experiments.RenderTable2, experiments.Table2Table)
	case "fig11a":
		rows, err := experiments.Fig11a(opt)
		return show(w, format, rows, err, experiments.RenderFig11a, experiments.Fig11aTable)
	case "fig11b":
		rows, err := experiments.Fig11b(opt)
		return show(w, format, rows, err, experiments.RenderFig11b, experiments.Fig11bTable)
	case "fig11c":
		rows, err := experiments.Fig11c(opt)
		return show(w, format, rows, err, experiments.RenderFig11c, experiments.Fig11cTable)
	case "fig12":
		rows, err := experiments.Fig12(opt)
		return show(w, format, rows, err, experiments.RenderFig12, experiments.Fig12Table)
	case "fig13a":
		rows, err := experiments.Fig13a(opt)
		return show(w, format, rows, err, experiments.RenderFig13a, experiments.Fig13aTable)
	case "fig13b":
		rows, err := experiments.Fig13b(opt)
		return show(w, format, rows, err, experiments.RenderFig13b, experiments.Fig13bTable)
	case "fig14a":
		rows, err := experiments.Fig14a(opt)
		return show(w, format, rows, err, experiments.RenderFig14a, experiments.Fig14aTable)
	case "fig14b":
		rows, err := experiments.Fig14b(opt)
		return show(w, format, rows, err, experiments.RenderFig14b, experiments.Fig14bTable)
	case "sweep":
		rows, err := experiments.MemorySweep(opt, experiments.DefaultSweepGrid(opt),
			experiments.SweepEngine{TargetRSE: targetRSE})
		return show(w, format, rows, err, experiments.RenderSweep, experiments.SweepTable)
	case "traj":
		cfg := experiments.DefaultTrajConfig(opt)
		cfg.ReweightFactor = reweightFactor
		cfg.SuperThreshold = tier.superThreshold
		cfg.Halflife = tier.halflife
		if tier.deviceRate != 0 { // any nonzero rate, so validation sees a negative one
			cfg.Device = defect.NewDeviceModel(tier.deviceRate)
		}
		cfg.Trace = tracer
		if lay.patches != 1 || lay.program != "" || lay.ops != 0 {
			cfg.Layout = &traj.LayoutConfig{Patches: lay.patches, Program: lay.program, Ops: lay.ops}
		}
		rows, err := experiments.TrajectoryScan(opt, cfg, experiments.DefaultTrajModes())
		return show(w, format, rows, err,
			func(w io.Writer, rows []experiments.TrajRow) { experiments.RenderTraj(w, cfg.Horizon, rows) },
			experiments.TrajTable)
	case "pipeline":
		res, err := experiments.DetectionPipeline(opt)
		if err != nil {
			return err
		}
		if format == report.Text {
			experiments.RenderPipeline(w, res)
			return nil
		}
		return experiments.PipelineTable(res).Write(w, format)
	case "calibrate":
		rows, err := experiments.Calibrate(opt, calPs, calDs, experiments.SweepEngine{TargetRSE: targetRSE})
		model, fitErr := estimator.Fit(calPs[0], experiments.CalibrationPoints(rows))
		return show(w, format, rows, err,
			func(w io.Writer, rows []experiments.CalibrateRow) {
				experiments.RenderCalibrate(w, rows, model, fitErr)
			},
			func(rows []experiments.CalibrateRow) *report.Table { return experiments.CalibrateTable(rows, model) })
	case "all":
		for _, n := range []string{"table1", "table2", "fig11a", "fig11b", "fig11c",
			"fig12", "fig13a", "fig13b", "fig14a", "fig14b"} {
			fmt.Fprintf(w, "\n=== %s ===\n", n)
			if err := run(n, opt, format, targetRSE, reweightFactor, calPs, calDs, lay, tier, tracer); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	}
	usage()
	return fmt.Errorf("unknown experiment %q", name)
}

// show renders one grid experiment's rows — the text table for -format
// text, the structured table otherwise — and returns the run error. Rows
// that finished before an isolated point failure print before the failure
// report; nil rows (a canceled or failed run) print nothing.
func show[R any](w io.Writer, format report.Format, rows []R, err error, render func(io.Writer, []R), table func([]R) *report.Table) error {
	if rows == nil {
		return err
	}
	if format == report.Text {
		render(w, rows)
	} else if werr := table(rows).Write(w, format); werr != nil {
		return werr
	}
	return err
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: surfdeform [flags] <experiment>

experiments:
  table1    instruction sets of LS / Q3DE / ASC-S / Surf-Deformer
  table2    end-to-end retry risk and qubit counts over 8 benchmarks
  fig11a    logical error rate vs #defects: untreated vs removed
  fig11b    remaining code distance: ASC-S vs Surf-Deformer
  fig11c    communication throughput vs defect rate
  fig12     physical qubits to reach 1% retry risk
  fig13a    retry-risk vs qubit-count trade-off curves
  fig13b    chiplet yield under static faults
  fig14a    robustness to correlated two-qubit errors
  fig14b    robustness to imprecise defect detection
  sweep     (d, #defects, policy) post-removal error-rate grid
  traj      closed-loop trajectories: detect → bandage/deform/reweight →
            recover over thousands of cycles with stochastic defect
            arrivals; five arms (surf-deformer, asc-s, super-only,
            reweight-only, untreated) face identical timelines (-trials
            per arm; -reweight-factor tunes the decoder-prior tier,
            -super-threshold the bandage tier's severity boundary,
            -halflife the rate estimator's temporal weighting; supports
            -store/-resume/-stats). -device-defect-rate p boots every
            trajectory on a fabrication-defective device sampled per seed
            and adapted through each arm's mitigation ladder. -patches N
            lifts the loop to an N-patch layout with routing channels and
            a lattice-surgery schedule (-program, -ops) that replans or
            stalls around channel-blocking defects
  pipeline  integrated detection→deformation loop (extension study)
  calibrate refit the Λ extrapolation model from memory-Z/X simulations
            of a fresh patch at every (p, d) of the -p × -d grid; prints
            the measured rates beside the fit (supports -target-rse and
            -store/-resume; a grid with fewer than 3 usable points prints
            its table and no fit)
  all       everything above`)
	flag.PrintDefaults()
}
