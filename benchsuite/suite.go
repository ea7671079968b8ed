package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"surfdeformer/internal/code"
	"surfdeformer/internal/decoder"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/experiments"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
	"surfdeformer/internal/traj"
)

// Stream salts of the suite's seed derivation (negative, so they never
// collide with engine shard indices; see mc.DeriveSeed).
const (
	saltBatch = int64(-0xB0)
	saltSetup = int64(-0xB1)
	saltProbe = int64(-0xB2)
	saltArm   = int64(-0xB3)
)

// metric is one declared benchmark metric.
type metric struct {
	name, unit, better string
}

// endToEnd lists the metrics the untraced run prints.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"shots_per_s", "shots/s", "higher"},
	{"cycles_per_s", "cycles/s", "higher"},
	{"heap_mb", "MB", "lower"},
}

// layerMetric is a per-layer metric of the traced run, with the end-to-end
// metrics a change to its layer should move and the workloads it should
// move them on.
type layerMetric struct {
	metric
	moves, on []string
}

func lm(name, unit, better, moves, on string) layerMetric {
	return layerMetric{metric{name, unit, better}, strings.Fields(moves), strings.Fields(on)}
}

// layerMetrics lists the metrics the traced run prints: the layer map.
var layerMetrics = []layerMetric{
	lm("sim.dem_builds", "1/op", "lower", "cycles_per_s setup_s", "traj-scan layout-simon"),
	lm("sim.dem_patches", "1/op", "lower", "cycles_per_s", "traj-drift"),
	lm("sim.dem_cache_hit_frac", "ratio", "higher", "cycles_per_s", "traj-drift"),
	lm("sim.dem_cache_hit_us", "us", "lower", "cycles_per_s", "traj-drift"),
	lm("decoder.graph_builds", "1/op", "lower", "cycles_per_s setup_s", "traj-scan layout-simon"),
	lm("decoder.graph_rederives", "1/op", "lower", "cycles_per_s", "traj-drift"),
	lm("decoder.graph_cache_hit_frac", "ratio", "higher", "cycles_per_s", "traj-drift"),
	lm("decoder.truncations", "1/op", "lower", "shots_per_s", "memory-d9 traj-scan traj-drift layout-simon"),
	lm("decoder.allocs_per_shot", "allocs/shot", "lower", "shots_per_s heap_mb", "memory-d9"),
	lm("detect.detections", "1/op", "lower", "cycles_per_s", "traj-scan layout-simon"),
	lm("core.steps", "1/op", "lower", "cycles_per_s", "traj-scan layout-simon"),
	lm("core.recoveries", "1/op", "lower", "cycles_per_s", "traj-scan layout-simon"),
	lm("route.attempts", "1/op", "lower", "cycles_per_s", "layout-simon"),
	lm("route.routed", "1/op", "higher", "cycles_per_s", "layout-simon"),
	lm("traj.epochs", "1/op", "lower", "cycles_per_s shots_per_s", "traj-drift traj-scan"),
	lm("traj.reweights", "1/op", "lower", "cycles_per_s", "traj-drift"),
	lm("mc.shards", "1/op", "lower", "shots_per_s", "memory-d9"),
	lm("mc.serial_cycles_per_s", "cycles/s", "higher", "cycles_per_s shots_per_s", "memory-d9 traj-scan traj-drift layout-simon"),
	lm(layerPct[layerBuild], "%", "lower", "cycles_per_s", "traj-scan layout-simon"),
	lm(layerPct[layerPatch], "%", "lower", "cycles_per_s", "traj-drift"),
	lm(layerPct[layerSample], "%", "lower", "shots_per_s cycles_per_s", "memory-d9 traj-drift"),
	lm(layerPct[layerDecode], "%", "lower", "shots_per_s cycles_per_s", "memory-d9 traj-drift"),
	lm(layerPct[layerAttribute], "%", "lower", "cycles_per_s", "traj-scan layout-simon"),
	lm(layerPct[layerStep], "%", "lower", "cycles_per_s", "traj-scan layout-simon"),
	lm(layerPct[layerRecover], "%", "lower", "cycles_per_s", "traj-scan layout-simon"),
	lm(layerPct[layerRoute], "%", "lower", "cycles_per_s", "layout-simon"),
	lm(layerPct[layerOther], "%", "lower", "cycles_per_s", "traj-drift traj-scan"),
}

// workload is one named input set of the suite.
type workload struct {
	name string
	eng  engine
	// warm and batch size the set-up's warm-up and each timed batch, in
	// shots or trajectories per arm; scalar sizes the traced run's scalar
	// loop in shots.
	warm, batch, scalar int
}

// workloads returns fresh instances of the suite's workloads in order.
// Batches take 0.1-0.2 s on one worker, short enough that the speed sample
// after each one sees the host in the state the batch ran in.
func workloads() []*workload {
	// The scan and the layout run d=3 patches. At d=5 a trajectory's cost
	// is set by how many cosmic strikes it draws (each costs several full
	// DEM builds of the enlarged patch); a 25 s run held under a hundred
	// Surf-Deformer trajectories, and its throughput moved by 10-15% from
	// seed to seed. A d=3 trajectory is about 14 times cheaper, so a run
	// covers hundreds to thousands of defect timelines.
	scanCfg := traj.QuickConfig()
	scanCfg.D = 3
	layoutCfg := scanCfg
	layoutCfg.Layout = &traj.LayoutConfig{Patches: 2, Program: "simon", Ops: 8}
	return []*workload{
		{"memory-d9", &memoryEngine{d: 9, rounds: 9, p: 5e-3}, 4096, 2500, 10000},
		{"traj-scan", &trajEngine{cfg: scanCfg, modes: experiments.DefaultTrajModes()}, 4, 4, 2000},
		{"traj-drift", &trajEngine{cfg: traj.DriftOnlyConfig(), modes: []traj.Mode{traj.ModeReweightOnly}}, 2, 2, 2000},
		{"layout-simon", &trajEngine{cfg: layoutCfg, modes: []traj.Mode{traj.ModeSurfDeformer}}, 4, 4, 2000},
	}
}

func lookup(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// engine is a workload's system under test.
type engine interface {
	// reset replaces the engine's state with a fresh private DEM cache.
	reset()
	// run executes n operations per arm (n shots for memory) seeded by
	// seed, checks the result, and returns it with the simulated cycles.
	run(seed int64, n, workers int, tr *obs.Tracer) (result any, cycles int64, err error)
	// ops is the number of operations run(n) attempts.
	ops(n int) int
	// traces reports whether runs emit trace events.
	traces() bool
	// probe describes the pristine configuration the probes run on.
	probe() (probeTarget, error)
	// summary renders the quality numbers of the batch results (nil
	// entries are failed batches).
	summary(results []any) string
}

// counterNames are the registry counters the suite differences.
var counterNames = []string{
	"sim.dem.builds", "sim.dem.patches", "sim.dem_cache.hits", "sim.dem_cache.misses",
	"decoder.decodes", "decoder.truncations", "decoder.graph.builds", "decoder.graph.rederives",
	"decoder.graph_cache.hits", "decoder.graph_cache.misses", "mc.shards_committed",
}

type counters map[string]int64

func readCounters() counters {
	c := counters{}
	for _, n := range counterNames {
		c[n] = obs.Default().Counter(n).Value()
	}
	return c
}

func (c counters) since(before counters, name string) int64 { return c[name] - before[name] }

// report is the last line of the suite's output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload: the set-ups, the timed batches, the
// determinism probe and, when traced, the ledger and the probes. It logs to
// out and returns the report plus batch 0's result digest.
func measure(w *workload, seed int64, seconds time.Duration, traced bool, out io.Writer) (*report, string, error) {
	eng := w.eng
	// One worker on one OS thread at a time. With two workers a batch
	// waits on its slowest trajectory while the other worker idles; with
	// a second thread free, the garbage collector marks on it, and the
	// run's speed then depends on how busy the host keeps the second
	// vCPU. Each of these widened the spread between runs by half or
	// more. The determinism probe uses the other worker count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	workers, otherWorkers, setups := 1, max(2, runtime.NumCPU()), 7
	if traced {
		setups = 1
	}
	fmt.Fprintf(out, "workload %s seed %d workers %d traced %v\n", w.name, seed, workers, traced)
	// Every set-up warms up on the same fixed seed, disjoint from the
	// batches' seeds, so set-up work is identical across runs and seeds and
	// setup_s moves only when the set-up path itself gets cheaper or dearer.
	// Times are converted to seconds at nominal speed with a speed sample
	// taken right after each set-up and each untraced batch (calibrate.go).
	// The traced run samples only before and after its batches, so that no
	// calibration lands between two trace events.
	cal := newCalibrator()
	setupSeed := mc.DeriveSeed(0, saltSetup)
	setupS := make([]float64, setups)
	var warmDigest string
	for i := range setupS {
		t0 := time.Now()
		eng.reset()
		res, _, err := eng.run(setupSeed, w.warm, workers, nil)
		if err != nil {
			return nil, "", fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS[i] = time.Since(t0).Seconds() * cal.speed()
		if warmDigest, err = digestOf(res); err != nil {
			return nil, "", err
		}
	}
	fmt.Fprintf(out, "setup_s %v\n", setupS)

	rep := &report{Correct: true}
	fail := func(format string, args ...any) {
		rep.Correct = false
		fmt.Fprintf(out, "CHECK FAILED: "+format+"\n", args...)
	}
	var (
		sink       *stampSink
		tr         *obs.Tracer
		heap       *heapSampler
		speedTrace float64
	)
	if traced {
		speedTrace = cal.speed()
		sink = newStampSink()
		tr = obs.NewTracer(sink)
		sink.mark()
	} else {
		heap = startHeapSampler(20 * time.Millisecond)
	}
	before := readCounters()
	var results []any
	// Summed over the batches that passed: wall seconds, seconds at
	// nominal speed, decoded shots and simulated cycles.
	var secs, nominalSecs, shots, cycles float64
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < seconds; k++ {
		c0 := readCounters()
		t0 := time.Now()
		res, n, err := eng.run(mc.DeriveSeed(seed, saltBatch, int64(k)), w.batch, workers, tr)
		dt := time.Since(t0).Seconds()
		c1 := readCounters()
		ops := eng.ops(w.batch)
		rep.Attempted += ops
		if err != nil {
			fail("batch %d: %v", k, err)
			rep.Failed += ops
			results = append(results, nil)
			continue
		}
		rep.Failed += int(min(int64(ops), c1.since(c0, "decoder.truncations")))
		results = append(results, res)
		secs += dt
		shots += float64(c1.since(c0, "decoder.decodes"))
		cycles += float64(n)
		if !traced {
			speed := cal.speed()
			nominalSecs += dt * speed
			fmt.Fprintf(out, "batch %d ops %d secs %.3f cycles/s %.1f speed %.3f\n", k, ops, dt, float64(n)/dt, speed)
		}
	}
	after := readCounters()
	var heapMB float64
	if traced {
		sink.mark()
		speedTrace = (speedTrace + cal.speed()) / 2
		nominalSecs = secs * speedTrace
	} else {
		heapMB = heap.stop()
	}
	if secs > 0 {
		fmt.Fprintf(out, "wall secs %.3f nominal secs %.3f cycles/s wall %.1f nominal %.1f\n",
			secs, nominalSecs, cycles/secs, cycles/nominalSecs)
	}
	if rep.Failed > 0 {
		fail("%d of %d operations failed", rep.Failed, rep.Attempted)
	}

	// Determinism probe: the warm-up again at the other worker count must
	// reproduce the set-up's result exactly.
	if res, _, err := eng.run(setupSeed, w.warm, otherWorkers, nil); err != nil {
		fail("warm-up at %d workers: %v", otherWorkers, err)
	} else if d, err := digestOf(res); err != nil {
		return nil, "", err
	} else if d != warmDigest {
		fail("warm-up digest %s at %d workers, %s at %d", warmDigest, workers, d, otherWorkers)
	}
	digest, err := digestOf(results[0])
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(out, "result_digest %s\n", digest)
	if s := eng.summary(results); s != "" {
		fmt.Fprintf(out, "%s\n", s)
	}

	values := map[string]float64{}
	rate := func(work float64) float64 {
		if nominalSecs == 0 {
			return 0
		}
		return work / nominalSecs
	}
	if !traced {
		values["setup_s"] = median(setupS)
		values["shots_per_s"] = rate(shots)
		values["cycles_per_s"] = rate(cycles)
		values["heap_mb"] = heapMB
		rep.Metrics = collect(endToEnd, values)
		return rep, digest, nil
	}

	ops := float64(rep.Attempted)
	perOp := func(n int64) float64 { return float64(n) / ops }
	frac := func(hits, misses string) float64 {
		h, m := after.since(before, hits), after.since(before, misses)
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	l, err := sink.ledger()
	if err != nil {
		return nil, "", err
	}
	if eng.traces() {
		if n, err := obs.ValidateTrace(bytes.NewReader(sink.trace())); err != nil {
			fail("trace invalid after %d events: %v", n, err)
		}
		if ends := l.events[obs.TraceEnd]; ends != rep.Attempted {
			fail("trace has %d end events for %d trajectories", ends, rep.Attempted)
		}
	}
	if err := tr.Err(); err != nil {
		fail("tracer: %v", err)
	}
	pt, err := eng.probe()
	if err != nil {
		return nil, "", err
	}
	hitUs, err := hitProbe(pt)
	if err != nil {
		return nil, "", err
	}
	sl, err := scalarLoop(pt, w.scalar, mc.DeriveSeed(seed, saltProbe))
	if err != nil {
		return nil, "", err
	}
	pct := l.pct()
	if !eng.traces() {
		// No trace events: the sample/decode split is the scalar loop's,
		// applied to the workload (computed, not traced).
		pct = [numLayers]float64{}
		pct[layerSample] = 100 * float64(sl.sampleNs) / float64(sl.wallNs)
		pct[layerDecode] = 100 * float64(sl.decodeNs) / float64(sl.wallNs)
		pct[layerOther] = 100 - pct[layerSample] - pct[layerDecode]
		fmt.Fprintf(out, "layer shares computed from a %d-shot scalar loop\n", sl.shots)
	}
	for i, name := range layerPct {
		values[name] = pct[i]
	}
	values["sim.dem_builds"] = perOp(after.since(before, "sim.dem.builds"))
	values["sim.dem_patches"] = perOp(after.since(before, "sim.dem.patches"))
	values["sim.dem_cache_hit_frac"] = frac("sim.dem_cache.hits", "sim.dem_cache.misses")
	values["sim.dem_cache_hit_us"] = hitUs
	values["decoder.graph_builds"] = perOp(after.since(before, "decoder.graph.builds"))
	values["decoder.graph_rederives"] = perOp(after.since(before, "decoder.graph.rederives"))
	values["decoder.graph_cache_hit_frac"] = frac("decoder.graph_cache.hits", "decoder.graph_cache.misses")
	values["decoder.truncations"] = perOp(after.since(before, "decoder.truncations"))
	values["decoder.allocs_per_shot"] = sl.allocsPerShot
	values["detect.detections"] = perOp(int64(l.events[obs.TraceDetect]))
	values["core.steps"] = perOp(int64(l.events[obs.TraceDeform]))
	values["core.recoveries"] = perOp(int64(l.events[obs.TraceRecover]))
	values["route.attempts"] = perOp(int64(l.events[obs.TraceSurgery]))
	values["route.routed"] = perOp(int64(l.routed))
	values["traj.epochs"] = perOp(int64(l.events[obs.TraceEpoch]))
	values["traj.reweights"] = perOp(int64(l.events[obs.TraceReweight]))
	values["mc.shards"] = perOp(after.since(before, "mc.shards_committed"))
	values["mc.serial_cycles_per_s"] = rate(cycles)
	metrics := make([]metric, len(layerMetrics))
	for i, m := range layerMetrics {
		metrics[i] = m.metric
	}
	rep.Metrics = collect(metrics, values)
	return rep, digest, nil
}

// collect pairs each declared metric with its measured value; a declared
// metric without a value is a bug in the suite.
func collect(declared []metric, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(declared))
	for _, m := range declared {
		v, ok := values[m.name]
		if !ok {
			panic("benchsuite: no value for declared metric " + m.name)
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}

// digestOf is the SHA-256 of a batch result's JSON ("" for a failed
// batch).
func digestOf(result any) (string, error) {
	if result == nil {
		return "", nil
	}
	blob, err := json.Marshal(result)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapSampler samples the runtime's heap-object bytes on a ticker until
// stopped and reports the median sample: the footprint the workload holds.
// It reports the median, not the peak, because the peak mostly tracks when
// the garbage collector last ran and varied up to three times as much
// across seeds.
type heapSampler struct {
	done   chan struct{}
	result chan float64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{done: make(chan struct{}), result: make(chan float64)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		var mb []float64
		for {
			metrics.Read(sample)
			mb = append(mb, float64(sample[0].Value.Uint64())/1e6)
			select {
			case <-h.done:
				h.result <- median(mb)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling goroutine, waits for it and returns the median
// heap in MB.
func (h *heapSampler) stop() float64 {
	close(h.done)
	return <-h.result
}

// probeTarget is the pristine configuration of a workload: the code, model,
// rounds and basis its nominal DEM is built for, and the workload's cache.
type probeTarget struct {
	code   *code.Code
	model  *noise.Model
	rounds int
	basis  lattice.CheckType
	cache  *sim.DEMCache
}

// hitProbe is the median time of 1000 cache hits on the pristine DEM, in
// microseconds.
func hitProbe(pt probeTarget) (float64, error) {
	if _, _, err := pt.cache.BuildDEMKeyed(pt.code, pt.model, pt.rounds, pt.basis); err != nil {
		return 0, err
	}
	us := make([]float64, 1000)
	for i := range us {
		t0 := time.Now()
		if _, _, err := pt.cache.BuildDEMKeyed(pt.code, pt.model, pt.rounds, pt.basis); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(us), nil
}

// scalarStats is the outcome of the one-worker sample+decode loop.
type scalarStats struct {
	shots                      int
	sampleNs, decodeNs, wallNs int64
	allocsPerShot              float64
}

// scalarLoop times each Sampler.Shot and DecodeToObs call of a
// single-threaded loop on the pristine DEM and counts its allocations.
func scalarLoop(pt probeTarget, shots int, seed int64) (scalarStats, error) {
	dem, _, err := pt.cache.BuildDEMKeyed(pt.code, pt.model, pt.rounds, pt.basis)
	if err != nil {
		return scalarStats{}, err
	}
	g := decoder.SharedGraph(dem)
	if err := g.Validate(); err != nil {
		return scalarStats{}, err
	}
	uf := decoder.NewUnionFind(g)
	sampler := sim.NewSampler(dem)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 100; i++ { // size the decoder's scratch before counting
		flagged, _ := sampler.Shot(rng)
		uf.DecodeToObs(flagged)
	}
	st := scalarStats{shots: shots}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < shots; i++ {
		t0 := time.Now()
		flagged, _ := sampler.Shot(rng)
		t1 := time.Now()
		uf.DecodeToObs(flagged)
		st.sampleNs += int64(t1.Sub(t0))
		st.decodeNs += int64(time.Since(t1))
	}
	st.wallNs = int64(time.Since(start))
	runtime.ReadMemStats(&m1)
	st.allocsPerShot = float64(m1.Mallocs-m0.Mallocs) / float64(shots)
	return st, nil
}

// memoryEngine runs memory experiments on the Monte-Carlo engine.
type memoryEngine struct {
	d, rounds int
	p         float64
	code      *code.Code
	model     *noise.Model
	cache     *sim.DEMCache
}

// memoryRow is the digested part of a MemoryResult: the deterministic
// aggregates (Truncations may differ across worker counts, and RSE is +Inf
// without failures).
type memoryRow struct {
	Shots, Failures, Rounds, Detectors, Mechanisms int
}

func (e *memoryEngine) reset() {
	e.code = code.FromPatch(lattice.NewPatch(lattice.Coord{}, e.d))
	e.model = noise.Uniform(e.p)
	e.cache = sim.NewDEMCache(0)
}

func (e *memoryEngine) run(seed int64, shots, workers int, _ *obs.Tracer) (any, int64, error) {
	r, err := sim.RunMemoryOpts(e.code, e.model, nil, sim.RunOptions{
		Rounds: e.rounds, Basis: lattice.ZCheck, Factory: decoder.UnionFindFactory(),
		Shots: shots, Workers: workers, Seed: seed, Cache: e.cache,
	})
	if err != nil {
		return nil, 0, err
	}
	switch {
	case r.Shots != shots:
		return nil, 0, fmt.Errorf("ran %d shots, budget %d", r.Shots, shots)
	case r.Rounds != e.rounds:
		return nil, 0, fmt.Errorf("result reports %d rounds, want %d", r.Rounds, e.rounds)
	case r.Failures < 0 || r.Failures > r.Shots:
		return nil, 0, fmt.Errorf("%d failures in %d shots", r.Failures, r.Shots)
	case r.LogicalErrorRate >= 0.5*e.p*float64(e.rounds):
		// Below threshold the decoder must beat the unencoded qubit's
		// per-shot error by a wide margin; failing that, decoding is broken.
		return nil, 0, fmt.Errorf("logical error rate %g is not below half of %g", r.LogicalErrorRate, e.p*float64(e.rounds))
	}
	return memoryRow{r.Shots, r.Failures, r.Rounds, r.Detectors, r.Mechanisms}, int64(r.Shots) * int64(e.rounds), nil
}

func (e *memoryEngine) ops(shots int) int { return shots }
func (e *memoryEngine) traces() bool      { return false }

func (e *memoryEngine) probe() (probeTarget, error) {
	return probeTarget{e.code, e.model, e.rounds, lattice.ZCheck, e.cache}, nil
}

func (e *memoryEngine) summary(results []any) string {
	var shots, failures int
	for _, r := range results {
		if r, ok := r.(memoryRow); ok {
			shots += r.Shots
			failures += r.Failures
		}
	}
	if shots == 0 {
		return ""
	}
	return fmt.Sprintf("logical_error_rate %.4g (%d failures in %d shots)", float64(failures)/float64(shots), failures, shots)
}

// trajEngine runs closed-loop trajectory scans.
type trajEngine struct {
	cfg   traj.Config
	modes []traj.Mode
}

var trajCycles = obs.Default().Counter("traj.cycles")

// patches is the number of patches each elapsed layout cycle simulates.
func (e *trajEngine) patches() int64 {
	if e.cfg.Layout != nil {
		return int64(e.cfg.Layout.Patches)
	}
	return 1
}

func (e *trajEngine) reset() { e.cfg.Cache = sim.NewDEMCache(0) }

// run scans each arm on its own seed. One TrajectoryScan over all arms
// would pair them on shared defect timelines, so a batch would hold a fifth
// as many independent timelines, and a run's throughput would swing with
// the strikes its few timelines drew.
func (e *trajEngine) run(seed int64, trials, workers int, tr *obs.Tracer) (any, int64, error) {
	cfg := e.cfg
	cfg.Trace = tr
	c0 := trajCycles.Value()
	var rows []experiments.TrajRow
	for i, m := range e.modes {
		opt := experiments.Options{Trials: trials, Seed: mc.DeriveSeed(seed, saltArm, int64(i)), PointWorkers: workers}
		arm, err := experiments.TrajectoryScan(opt, cfg, []traj.Mode{m})
		if err != nil {
			return nil, 0, err
		}
		rows = append(rows, arm...)
	}
	elapsed := trajCycles.Value() - c0
	if limit := int64(e.ops(trials)) * e.cfg.Horizon; elapsed > limit {
		return nil, 0, fmt.Errorf("%d cycles elapsed, horizon allows %d", elapsed, limit)
	}
	if err := e.check(rows, trials); err != nil {
		return nil, 0, err
	}
	return rows, elapsed * e.patches(), nil
}

// check applies the row invariants of a scan.
func (e *trajEngine) check(rows []experiments.TrajRow, trials int) error {
	if len(rows) != len(e.modes) {
		return fmt.Errorf("%d rows for %d arms", len(rows), len(e.modes))
	}
	inUnit := func(x float64) bool { return x >= 0 && x <= 1 }
	for i, r := range rows {
		switch {
		case r.Mode != e.modes[i].String():
			return fmt.Errorf("row %d is arm %q, want %q", i, r.Mode, e.modes[i])
		case r.Trajectories != trials:
			return fmt.Errorf("%s: %d trajectories, want %d", r.Mode, r.Trajectories, trials)
		case !inUnit(r.DetectedFrac) || !inUnit(r.ProgramDoneFrac) || !inUnit(r.BlockedFrac):
			return fmt.Errorf("%s: fraction outside [0,1]: %+v", r.Mode, r)
		case r.FailuresPer1k < 0 || math.IsNaN(r.FailuresPer1k) || math.IsInf(r.FailuresPer1k, 0):
			return fmt.Errorf("%s: failures per 1k cycles %g", r.Mode, r.FailuresPer1k)
		case r.MeanOpsCompleted > r.MeanOpsTotal:
			return fmt.Errorf("%s: %g of %g operations completed", r.Mode, r.MeanOpsCompleted, r.MeanOpsTotal)
		case e.cfg.Layout != nil && r.MeanOpsTotal != float64(e.cfg.Layout.Ops):
			return fmt.Errorf("%s: %g operations scheduled, want %d", r.Mode, r.MeanOpsTotal, e.cfg.Layout.Ops)
		}
		for q, s := range r.Survival {
			if !inUnit(s) || (q > 0 && s > r.Survival[q-1]) {
				return fmt.Errorf("%s: survival %v not non-increasing in [0,1]", r.Mode, r.Survival)
			}
		}
	}
	return nil
}

func (e *trajEngine) ops(trials int) int { return trials * len(e.modes) }
func (e *trajEngine) traces() bool       { return true }

func (e *trajEngine) probe() (probeTarget, error) {
	c, err := deform.NewSquareSpec(lattice.Coord{}, e.cfg.D).Build()
	if err != nil {
		return probeTarget{}, fmt.Errorf("pristine code: %w", err)
	}
	return probeTarget{c, noise.Uniform(e.cfg.PhysicalRate), e.cfg.ChunkRounds, e.cfg.Basis, e.cfg.Cache}, nil
}

// summary prints each arm's failures per 1000 cycles and program
// completion averaged over batches (equal-sized, so the mean is exact), and
// the untreated ÷ Surf-Deformer mitigation gain when both arms ran (on
// independent timelines, so it is noisier than a paired scan's).
func (e *trajEngine) summary(results []any) string {
	fail := make([]float64, len(e.modes))
	done := make([]float64, len(e.modes))
	n := 0
	for _, r := range results {
		rows, ok := r.([]experiments.TrajRow)
		if !ok {
			continue
		}
		n++
		for i, row := range rows {
			fail[i] += row.FailuresPer1k
			done[i] += row.ProgramDoneFrac
		}
	}
	if n == 0 {
		return ""
	}
	var sb strings.Builder
	perArm := map[traj.Mode]float64{}
	for i, m := range e.modes {
		perArm[m] = fail[i] / float64(n)
		fmt.Fprintf(&sb, "arm %s failures_per_1k %.4g", m, perArm[m])
		if e.cfg.Layout != nil {
			fmt.Fprintf(&sb, " program_done_frac %.4g", done[i]/float64(n))
		}
		sb.WriteByte('\n')
	}
	untreated, okU := perArm[traj.ModeUntreated]
	surf, okS := perArm[traj.ModeSurfDeformer]
	if okU && okS && surf > 0 {
		fmt.Fprintf(&sb, "mitigation_gain %.4g\n", untreated/surf)
	}
	return strings.TrimSuffix(sb.String(), "\n")
}
