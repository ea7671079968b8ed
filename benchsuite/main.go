// Command benchsuite is the repository's benchmark: four workloads that
// together cover every layer the paper's Monte-Carlo results run through,
// each measured end to end with tracing off and layer by layer in a separate
// traced run. BENCHMARK.json at the repository root declares the command,
// the workloads and every metric with its unit, direction and regression
// bound.
//
// # Running
//
//	bash benchsuite/run.sh --workload traj-scan --seed 1 --seconds 25 --trace 0
//
// run.sh builds this package (its own Go module, importing the repository
// module through a replace directive) into .bench_build and runs it. One
// invocation runs one workload in one process. The last line of standard
// output is a JSON object {"correct", "attempted", "failed", "metrics"};
// earlier lines are a human-readable log: set-up times, one line per batch,
// the result digest and quality numbers. Errors that prevent a measurement
// go to standard error with exit code 1.
//
// A run sets up seven times (a fresh private DEM cache plus a warm-up on a
// fixed seed each time; the last set-up's state is kept), then runs
// fixed-size, seed-determined batches on one worker with GOMAXPROCS=1 until
// --seconds have elapsed. Batch k draws its seed from (--seed, k), so a seed
// fixes every input. Afterwards it repeats the warm-up with
// max(2, runtime.NumCPU()) workers and requires the identical result
// digest: results must be a pure function of config and seed for any worker
// count. The traced run prints batch 0's result_digest too, so comparing
// the two invocations' digests checks that tracing observes without
// feeding back.
//
// # Workloads
//
//   - memory-d9: sim.RunMemoryOpts at d=9, p=5e-3, 9 rounds, 2500-shot
//     batches. The sample+decode hot path every figure sweep multiplies,
//     with no DEM builds after set-up; DEM-build and trajectory-engine
//     changes should leave it unmoved.
//   - traj-scan: experiments.TrajectoryScan on traj.QuickConfig at d=3, all
//     five arms of experiments.DefaultTrajModes, 4 trajectories per arm per
//     batch. Each arm is scanned on its own seed, so the arms face
//     independent defect timelines rather than paired ones. The per-chunk
//     loop and full DEM builds of deformed codes share its time (about 50%
//     and 35% of a traced run); it also logs the untreated ÷ Surf-Deformer
//     failure ratio, the paper's headline.
//   - traj-drift: the reweight-only arm on traj.DriftOnlyConfig (d=5,
//     horizon 1200), 2 trajectories per batch. Almost no full builds: DEM
//     patches, cache lookups and the per-chunk loop dominate. It is the
//     bypass case for DEM-build work and the target for per-chunk overhead.
//   - layout-simon: the 2-patch layout engine at d=3 with a "simon"
//     lattice-surgery schedule of 8 operations, Surf-Deformer arm, 4
//     trajectories per batch. The only workload that exercises route,
//     surgery and the multi-patch engine; full DEM builds take about half
//     its time. Cycles are counted per patch.
//
// The scan and the layout run d=3 rather than the d=5 of traj.QuickConfig
// because at d=5 a trajectory's cost is set by how many cosmic strikes it
// draws, and a run held too few trajectories for its throughput to repeat
// from seed to seed (see workloads in suite.go).
//
// An operation is a shot (memory-d9) or a trajectory. It fails when its
// call errors, when its batch fails a result check, or when its decode is
// truncated; "failed" counts such operations against "attempted".
//
// # End-to-end metrics (--trace 0)
//
// setup_s is the median of the seven set-ups. shots_per_s (decoded shots,
// from the decoder.decodes counter) and cycles_per_s (simulated QEC cycles:
// shots × rounds for memory, the traj.cycles counter × patches otherwise)
// are the work of all batches over their summed time. heap_mb is the median
// of the runtime's heap-object bytes, sampled every 20 ms during the
// batches.
//
// Times are seconds at nominal speed. On the shared VM the suite was sized
// on, a thread runs at one of two speeds about 1.7 times apart, and the
// share of slow time drifts over minutes, so raw rates of identical runs
// minutes apart differ by 20-40%. Each set-up's and batch's wall time is
// therefore multiplied by the host's speed relative to nominal, sampled
// right after it by a fixed loop that shares no code with the repository
// (calibrate.go). A change to the program moves the metrics in full; the
// host's swings largely cancel. Each run's log prints the wall-clock rate
// beside the nominal one.
//
// Trajectory costs are heavy-tailed as well (a defect event costs several
// full DEM builds). The other choices above keep the spread between runs of
// different seeds down: one thread, many cheap independent trajectories per
// run, and rates totalled over the whole run.
//
// # Traced run and layer map (--trace 1)
//
// The traced run uses one worker too, so consecutive trace events belong to
// one trajectory. Its obs.Tracer writes to a stampSink (ledger.go), which stamps
// each line with the wall clock and the running sums of the sim.dem.build_ns
// and sim.dem.patch_ns histograms. Every gap between consecutive lines is
// split into DEM build time, DEM patch time, the epoch's own sample_ns and
// decode_ns, and a remainder charged to the layer whose call the gap
// closes: mitigate→deform is Step/Super (core.step), a gap ending in detect
// is the attribute call (detect.attribute), one ending in recover is
// Recover/Unbandage (core.recover), one ending in surgery is RoutePaths and
// MergeBlocked (route.attempt). Everything else is other_pct, so the
// shares always add up to 100 and nothing is hidden. Layout epoch events
// carry no sample/decode timings, so on layout-simon those costs are in
// other_pct. memory-d9 emits no trace events: its sample/decode split is
// computed from a scalar loop that times each Sampler.Shot and DecodeToObs
// call on the workload's DEM.
//
// Counts are counter or event deltas per operation. Probes measured after
// the batches: sim.dem_cache_hit_us (median of 1000 cache hits on the
// workload's pristine code) and decoder.allocs_per_shot (MemStats over the
// scalar loop). mc.serial_cycles_per_s is the traced run's own throughput;
// its distance below cycles_per_s is the cost of tracing.
// layerMetrics in suite.go maps every per-layer metric to the end-to-end
// metrics and workloads it should move.
//
// The BENCH_hotpath.json slots written by cmd/bench are legacy: they are
// single short runs without set-up, memory or per-layer numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: memory-d9, traj-scan, traj-drift or layout-simon")
	seed := fs.Int64("seed", 1, "seed every input of the run derives from")
	seconds := fs.Float64("seconds", 10, "how long the batches run")
	trace := fs.Int("trace", 0, "1 runs the traced single-worker run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	w := lookup(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	rep, _, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
