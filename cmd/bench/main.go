// Command bench measures the Monte-Carlo hot path — Sampler.Shot feeding
// UnionFind.DecodeToObs — and writes the results to BENCH_hotpath.json so
// the repository carries a tracked performance baseline across PRs.
//
// For each code distance it builds a memory-experiment DEM, then times a
// single-threaded sample+decode loop (the scalar path every engine worker
// multiplies) and reports shots/sec, ns/shot, and allocs/shot measured via
// runtime.MemStats deltas. The engine section repeats the d points through
// mc.RunBatch to capture scheduling overhead.
//
// Usage:
//
//	bench -out BENCH_hotpath.json                 # refresh the "current" run
//	bench -out BENCH_hotpath.json -as-baseline    # record the baseline slot
//
// The output file holds two runs: "baseline" (the state to beat, preserved
// across refreshes) and "current". Refreshing only replaces "current";
// -as-baseline replaces "baseline" instead. Compare ns/shot point-by-point.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"surfdeformer/internal/cliutil"
	"surfdeformer/internal/code"
	"surfdeformer/internal/decoder"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
	"surfdeformer/internal/traj"
)

// Point is one measured configuration.
type Point struct {
	D         int     `json:"d"`
	P         float64 `json:"p"`
	Rounds    int     `json:"rounds"`
	Shots     int     `json:"shots"`
	ShotsSec  float64 `json:"shots_per_sec"`
	NsShot    float64 `json:"ns_per_shot"`
	AllocShot float64 `json:"allocs_per_shot"`
}

// EnginePoint is one engine-level measurement (sharded batch path).
type EnginePoint struct {
	D        int     `json:"d"`
	Shots    int     `json:"shots"`
	ShotsSec float64 `json:"shots_per_sec"`
	NsShot   float64 `json:"ns_per_shot"`
}

// TrajPoint is one closed-loop trajectory-engine measurement: full
// detect → deform → recover trajectories at quick scale, reported as
// simulated QEC cycles per second. DEMBuilds and DEMPatches are the
// sim.dem.builds / sim.dem.patches counter deltas over the timed loop:
// builds are full merge-and-propagate DEM constructions, patches are the
// incremental re-rates that replaced them on the hot path, so the ratio is
// the tracked evidence the patch fast path is actually engaged.
type TrajPoint struct {
	D int `json:"d"`
	// Patches is the layout size of the layout-traj slot (omitted on the
	// single-patch trajectory and reweight slots).
	Patches      int     `json:"patches,omitempty"`
	Horizon      int64   `json:"horizon"`
	Trajectories int     `json:"trajectories"`
	CyclesSec    float64 `json:"cycles_per_sec"`
	NsCycle      float64 `json:"ns_per_cycle"`
	DEMBuilds    int64   `json:"dem_builds"`
	DEMPatches   int64   `json:"dem_patches"`
}

// Run is one full harness invocation.
type Run struct {
	Label  string        `json:"label"`
	Date   string        `json:"date"`
	CPU    int           `json:"num_cpu"`
	Points []Point       `json:"points"`
	Engine []EnginePoint `json:"engine,omitempty"`
	Traj   []TrajPoint   `json:"trajectory,omitempty"`
	// Reweight times the decoder-prior reweight tier: reweight-only
	// trajectories on a sustained drift-only timeline (rate estimation,
	// overlay construction, and reweighted decode-DEM builds included).
	Reweight []TrajPoint `json:"reweight,omitempty"`
	// Super times the bandage (super-stabilizer) tier: super-only
	// trajectories booted on a fabrication-defective device, so the number
	// includes the boot bandage constructions, gauge-merged DEM builds, and
	// dynamic bandage/release handling on top of a plain trajectory.
	Super []TrajPoint `json:"super,omitempty"`
	// LayoutTraj times the layout-level engine: an N-patch floorplan with
	// routing channels and a lattice-surgery schedule, so the number
	// includes per-patch sampling/decoding, channel bookkeeping, and the
	// router's replanning on top of the single-patch loop.
	LayoutTraj []TrajPoint `json:"layout_traj,omitempty"`
}

// File is the on-disk schema of BENCH_hotpath.json.
type File struct {
	Schema   string `json:"schema"`
	Baseline *Run   `json:"baseline,omitempty"`
	Current  *Run   `json:"current,omitempty"`
}

const schema = "surfdeformer-bench-hotpath/v1"

// main is a thin exit-code shim: all work happens in realMain so the
// profiling defers (CPU-profile flush, heap-profile write) execute on every
// path, including errors.
func main() {
	if err := realMain(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func realMain() (err error) {
	out := flag.String("out", "BENCH_hotpath.json", "output file (empty = stdout only)")
	dArg := flag.String("d", "5,9,13", "comma-separated code distances")
	p := flag.Float64("p", 1e-3, "physical error rate")
	rounds := flag.Int("rounds", 0, "QEC rounds (0 = d rounds per point)")
	shots := flag.Int("shots", 20000, "timed shots per point")
	warmup := flag.Int("warmup", 1000, "untimed warmup shots per point")
	label := flag.String("label", "", "run label recorded in the file")
	asBaseline := flag.Bool("as-baseline", false, "write the baseline slot instead of current")
	engine := flag.Bool("engine", true, "also measure the mc engine batch path")
	trajN := flag.Int("traj", 8, "closed-loop trajectories to time (0 disables)")
	reweightN := flag.Int("reweight", 8, "reweight-only drift trajectories to time (0 disables)")
	superN := flag.Int("super", 8, "super-only device-defect trajectories to time (0 disables)")
	layoutTrajN := flag.Int("layout-traj", 4, "2-patch layout trajectories to time (0 disables)")
	gate := flag.Float64("gate", 0, "compare-only regression gate: fail if measured trajectory cycles/sec falls below this fraction of the committed -out file's current slot (no file write)")
	prof := cliutil.AddProfileFlags()
	flag.Parse()

	stop, err := prof.Start("bench")
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); serr != nil && err == nil {
			err = serr
		}
	}()

	ds, err := cliutil.ParseInts(*dArg)
	if err != nil {
		return err
	}
	if *gate > 0 {
		// Gate mode measures the trajectory slot only and compares against
		// the committed file instead of rewriting it, so CI can fail a PR
		// that regresses the hot path without churning the tracked baseline.
		if *trajN <= 0 {
			return fmt.Errorf("-gate requires -traj > 0")
		}
		return gateTraj(*out, *gate, *trajN)
	}
	run := &Run{
		Label: *label,
		Date:  time.Now().UTC().Format("2006-01-02"),
		CPU:   runtime.NumCPU(),
	}
	for _, d := range ds {
		r := *rounds
		if r <= 0 {
			r = d
		}
		pt, err := measurePoint(d, *p, r, *shots, *warmup)
		if err != nil {
			return err
		}
		run.Points = append(run.Points, pt)
		fmt.Printf("d=%-3d p=%.0e rounds=%-3d  %12.0f shots/sec  %9.0f ns/shot  %7.2f allocs/shot\n",
			pt.D, pt.P, pt.Rounds, pt.ShotsSec, pt.NsShot, pt.AllocShot)
		if *engine {
			ep, err := measureEngine(d, *p, r, *shots)
			if err != nil {
				return err
			}
			run.Engine = append(run.Engine, ep)
			fmt.Printf("d=%-3d engine (workers=all)   %12.0f shots/sec  %9.0f ns/shot\n",
				ep.D, ep.ShotsSec, ep.NsShot)
		}
	}
	if *trajN > 0 {
		tp, err := measureTraj(*trajN)
		if err != nil {
			return err
		}
		run.Traj = append(run.Traj, tp)
		fmt.Printf("traj d=%-3d horizon=%-5d      %12.0f cycles/sec %9.0f ns/cycle  %d dem builds, %d patches\n",
			tp.D, tp.Horizon, tp.CyclesSec, tp.NsCycle, tp.DEMBuilds, tp.DEMPatches)
	}
	if *reweightN > 0 {
		rp, err := measureReweight(*reweightN)
		if err != nil {
			return err
		}
		run.Reweight = append(run.Reweight, rp)
		fmt.Printf("rewt d=%-3d horizon=%-5d      %12.0f cycles/sec %9.0f ns/cycle  %d dem builds, %d patches\n",
			rp.D, rp.Horizon, rp.CyclesSec, rp.NsCycle, rp.DEMBuilds, rp.DEMPatches)
	}
	if *superN > 0 {
		sp, err := measureSuper(*superN)
		if err != nil {
			return err
		}
		run.Super = append(run.Super, sp)
		fmt.Printf("supr d=%-3d horizon=%-5d      %12.0f cycles/sec %9.0f ns/cycle  %d dem builds, %d patches\n",
			sp.D, sp.Horizon, sp.CyclesSec, sp.NsCycle, sp.DEMBuilds, sp.DEMPatches)
	}
	if *layoutTrajN > 0 {
		lp, err := measureLayoutTraj(*layoutTrajN)
		if err != nil {
			return err
		}
		run.LayoutTraj = append(run.LayoutTraj, lp)
		fmt.Printf("lay  d=%-3d horizon=%-5d n=%d  %12.0f cycles/sec %9.0f ns/cycle  %d dem builds, %d patches\n",
			lp.D, lp.Horizon, lp.Patches, lp.CyclesSec, lp.NsCycle, lp.DEMBuilds, lp.DEMPatches)
	}
	if *out == "" {
		return nil
	}
	f := &File{Schema: schema}
	// Distinguish "no previous file" from a read failure: overwriting on
	// a transient read error would silently destroy the tracked baseline.
	if prev, err := os.ReadFile(*out); err == nil {
		if jerr := json.Unmarshal(prev, f); jerr != nil {
			return fmt.Errorf("existing %s is not a bench file: %v", *out, jerr)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("reading existing %s: %v", *out, err)
	}
	f.Schema = schema
	if *asBaseline {
		f.Baseline = run
	} else {
		f.Current = run
	}
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	if f.Baseline != nil && f.Current != nil {
		for _, cur := range f.Current.Points {
			for _, base := range f.Baseline.Points {
				if base.D == cur.D && base.P == cur.P {
					fmt.Printf("d=%-3d speedup vs baseline: %.2fx (%.0f -> %.0f ns/shot)\n",
						cur.D, base.NsShot/cur.NsShot, base.NsShot, cur.NsShot)
				}
			}
		}
	}
	return nil
}

// gateTraj is the -gate path: measure the trajectory slot, read the
// committed bench file, and fail when the measured throughput drops below
// the given fraction of the tracked current slot. Read-only by design — a
// gate must never move its own goalposts.
func gateTraj(out string, gate float64, trajN int) error {
	blob, err := os.ReadFile(out)
	if err != nil {
		return fmt.Errorf("-gate needs the committed bench file: %v", err)
	}
	var f File
	if err := json.Unmarshal(blob, &f); err != nil {
		return fmt.Errorf("%s is not a bench file: %v", out, err)
	}
	if f.Current == nil || len(f.Current.Traj) == 0 {
		return fmt.Errorf("%s has no current trajectory slot to gate against", out)
	}
	committed := f.Current.Traj[0].CyclesSec
	tp, err := measureTraj(trajN)
	if err != nil {
		return err
	}
	floor := gate * committed
	fmt.Printf("traj gate: measured %.0f cycles/sec, committed %.0f, floor %.0f (%.0f%%)\n",
		tp.CyclesSec, committed, floor, 100*gate)
	if tp.CyclesSec < floor {
		return fmt.Errorf("trajectory throughput regressed: %.0f cycles/sec < %.0f%% of committed %.0f",
			tp.CyclesSec, 100*gate, committed)
	}
	return nil
}

// measurePoint times the scalar sample+decode loop for one configuration.
func measurePoint(d int, p float64, rounds, shots, warmup int) (Point, error) {
	c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, d))
	dem, err := sim.BuildDEM(c, noise.Uniform(p), rounds, lattice.ZCheck)
	if err != nil {
		return Point{}, err
	}
	g := decoder.SharedGraph(dem)
	if err := g.Validate(); err != nil {
		return Point{}, err
	}
	uf := decoder.NewUnionFind(g)
	sampler := sim.NewSampler(dem)
	rng := rand.New(rand.NewSource(1))
	sink := false
	for i := 0; i < warmup; i++ {
		flagged, obs := sampler.Shot(rng)
		sink = sink != (uf.DecodeToObs(flagged) != obs)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < shots; i++ {
		flagged, obs := sampler.Shot(rng)
		sink = sink != (uf.DecodeToObs(flagged) != obs)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	_ = sink
	ns := float64(elapsed.Nanoseconds()) / float64(shots)
	return Point{
		D: d, P: p, Rounds: rounds, Shots: shots,
		ShotsSec:  float64(shots) / elapsed.Seconds(),
		NsShot:    ns,
		AllocShot: float64(m1.Mallocs-m0.Mallocs) / float64(shots),
	}, nil
}

// measureEngine times the same configuration through the mc engine so the
// number includes sharding, commit, and scheduling overhead.
func measureEngine(d int, p float64, rounds, shots int) (EnginePoint, error) {
	c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, d))
	model := noise.Uniform(p)
	opts := sim.RunOptions{
		Rounds:  rounds,
		Basis:   lattice.ZCheck,
		Factory: decoder.UnionFindFactory(),
		Shots:   shots,
		Seed:    1,
	}
	// Warm the DEM/decoder-graph caches so the timed run measures shots,
	// not one-time model construction.
	warm := opts
	warm.Shots = 64
	if _, err := sim.RunMemoryOpts(c, model, nil, warm); err != nil {
		return EnginePoint{}, err
	}
	start := time.Now()
	res, err := sim.RunMemoryOpts(c, model, nil, opts)
	if err != nil {
		return EnginePoint{}, err
	}
	elapsed := time.Since(start)
	return EnginePoint{
		D: d, Shots: res.Shots,
		ShotsSec: float64(res.Shots) / elapsed.Seconds(),
		NsShot:   float64(elapsed.Nanoseconds()) / float64(res.Shots),
	}, nil
}

// measureTraj times the closed-loop trajectory engine: n quick-scale
// Surf-Deformer trajectories on a private DEM cache (one warm-up trajectory
// amortizes nothing across runs, matching a cold scan start).
func measureTraj(n int) (TrajPoint, error) {
	cfg := traj.QuickConfig()
	return measureTrajLoop(cfg, traj.ModeSurfDeformer, n)
}

// measureReweight times the decoder-prior reweight tier end to end: n
// reweight-only trajectories on a sustained drift-only timeline, so the
// number includes window rate estimation, overlay construction, and the
// reweighted decode-DEM patches/builds the tier adds over a plain
// trajectory.
func measureReweight(n int) (TrajPoint, error) {
	cfg := traj.DriftOnlyConfig()
	cfg.Horizon = 400 // quick-scale trajectories, like measureTraj
	return measureTrajLoop(cfg, traj.ModeReweightOnly, n)
}

// measureSuper times the bandage (super-stabilizer) tier end to end: n
// super-only trajectories booted on a fabrication-defective device, so the
// number includes the boot bandage constructions, the gauge-merged nominal
// DEM builds, and dynamic bandage/release handling the tier adds over a
// plain trajectory.
func measureSuper(n int) (TrajPoint, error) {
	cfg := traj.QuickConfig()
	cfg.Device = defect.NewDeviceModel(0.08)
	return measureTrajLoop(cfg, traj.ModeSuperOnly, n)
}

// measureLayoutTraj times the engine on a floorplan: n quick-scale 2-patch
// Surf-Deformer trajectories with a lattice-surgery schedule. Like every
// trajectory slot it reports the summed per-layout ElapsedCycles (layout
// clock cycles, not patch-cycles); TrajPoint.Patches carries the patch
// count, the weight a reader applies to compare the slot with the
// single-patch trajectory number.
func measureLayoutTraj(n int) (TrajPoint, error) {
	cfg := traj.QuickConfig()
	cfg.Layout = &traj.LayoutConfig{Patches: 2, Program: "simon", Ops: 8}
	tp, err := measureTrajLoop(cfg, traj.ModeSurfDeformer, n)
	tp.Patches = cfg.Layout.Patches
	return tp, err
}

// measureTrajLoop runs n trajectories of one arm on a private DEM cache and
// reports cycle throughput plus the DEM build/patch counter deltas of the
// timed loop.
func measureTrajLoop(cfg traj.Config, mode traj.Mode, n int) (TrajPoint, error) {
	cfg.Cache = sim.NewDEMCache(0)
	if _, err := traj.Run(cfg, mode, 1); err != nil {
		return TrajPoint{}, err
	}
	builds := obs.Default().Counter("sim.dem.builds")
	patches := obs.Default().Counter("sim.dem.patches")
	builds0, patches0 := builds.Value(), patches.Value()
	var cycles int64
	start := time.Now()
	for i := 0; i < n; i++ {
		res, err := traj.Run(cfg, mode, int64(i+1))
		if err != nil {
			return TrajPoint{}, err
		}
		cycles += res.ElapsedCycles
	}
	elapsed := time.Since(start)
	return TrajPoint{
		D: cfg.D, Horizon: cfg.Horizon, Trajectories: n,
		CyclesSec:  float64(cycles) / elapsed.Seconds(),
		NsCycle:    float64(elapsed.Nanoseconds()) / float64(cycles),
		DEMBuilds:  builds.Value() - builds0,
		DEMPatches: patches.Value() - patches0,
	}, nil
}
