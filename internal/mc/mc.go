// Package mc is the concurrent Monte-Carlo execution engine behind every
// memory experiment in the repository.
//
// The engine shards a shot budget into fixed-size shards, each with its own
// RNG stream derived from the user seed via SplitMix64 (ShardSeed), and
// fans the shards out over a worker pool. Each worker owns a private
// sampler + decoder built once by the caller's WorkerFactory, so no state
// is shared on the per-shot hot path. Because shard streams depend only on
// (seed, shard index) and shard aggregates are committed in shard order,
// the result is bit-identical for any worker count — Workers is purely a
// throughput knob.
//
// Adaptive early stopping: with TargetRSE > 0 the engine stops once the
// relative standard error of the failure-rate estimate reaches the target
// (≈ 1/sqrt(failures), so ~100 failures for 10%). The stopping decision is
// evaluated on the in-shard-order prefix of committed shards; speculative
// shards completed beyond the deterministic cutoff are discarded, keeping
// early-stopped results bit-identical across worker counts too. At low
// logical error rates this saves orders of magnitude of shots versus a
// fixed budget sized for the worst configuration in a sweep.
//
// The engine is deliberately generic — one callback that runs a shot (or a
// batch of shots) and reports failures — so package sim can layer DEM
// construction, caching and decoder wiring on top without an import cycle.
// The batched path (RunBatch/ShotBatchFunc) hands a worker one whole shard
// per call, amortizing per-shot closure-call overhead; Run wraps a
// single-shot closure onto it, and both paths are bit-identical.
//
// Parallelism exists at two levels, both governed by the same determinism
// contract. Within a point, Run/RunBatch shard the shot budget; across
// points, ForEach fans independent grid configurations out over a second
// pool. Every stream at either level is derived from the user seed by the
// SplitMix64 chain (DeriveSeed/ShardSeed/StringSeed), a pure function of
// (seed, content path): no stream ever depends on worker count, scheduling
// order, grid position, or which subset of points a resumed session still
// has to compute. That invariant is what lets the persistent result store
// (package store) merge rows from different sessions and worker counts into
// one statistically coherent aggregate.
package mc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"

	"surfdeformer/internal/obs"
)

// Engine metrics, resolved once so commits pay one atomic add each. They
// observe only committed (non-speculative) work, so their values are as
// deterministic as the results themselves. The fault counters
// (worker_panics, point_retries) observe failure handling and are, like
// every obs metric, forbidden from feeding back into results.
var (
	obsShots        = obs.Default().Counter("mc.shots_committed")
	obsShards       = obs.Default().Counter("mc.shards_committed")
	obsEarlyStops   = obs.Default().Counter("mc.early_stops")
	obsPoolActive   = obs.Default().Gauge("mc.pool.active")
	obsPoolDone     = obs.Default().Counter("mc.pool.points_done")
	obsWorkerPanics = obs.Default().Counter("mc.worker_panics")
	obsPointRetries = obs.Default().Counter("mc.point_retries")
)

// DefaultShardSize is the number of shots per shard. It is a fixed
// constant, not a function of worker count: shard boundaries define the
// RNG streams, so changing it changes sampled results (like changing the
// seed), while changing Workers never does. 1024 shots amortize shard
// dispatch overhead while keeping early-stopping granularity fine.
const DefaultShardSize = 1024

// ShotFunc runs one Monte-Carlo shot with the given RNG and reports
// whether the shot was a logical failure. Implementations may keep
// per-worker scratch state but must draw all randomness from rng.
type ShotFunc func(rng *rand.Rand) bool

// WorkerFactory builds the per-worker shot closure. It is called once per
// worker, concurrently; each call must return a closure with its own
// mutable state (sampler scratch, decoder cluster arrays, …).
type WorkerFactory func() (ShotFunc, error)

// ShotBatchFunc runs n consecutive shots with the given RNG and returns
// the number of logical failures. It is the batched counterpart of
// ShotFunc: the engine hands a worker one whole scheduling quantum (a
// shard) per call, so per-shot function-call and commit overhead
// amortizes across the batch. Implementations must draw exactly the same
// randomness, in the same order, as n sequential single-shot runs would —
// that is what keeps the batched and per-shot paths bit-identical.
type ShotBatchFunc func(rng *rand.Rand, n int) (failures int)

// BatchWorkerFactory builds the per-worker batch closure. It is called
// once per worker, concurrently, like WorkerFactory.
type BatchWorkerFactory func() (ShotBatchFunc, error)

// Config parameterizes one engine run.
type Config struct {
	// Workers is the pool size; <= 0 means runtime.NumCPU(). The value
	// never affects results, only wall-clock time.
	Workers int
	// MaxShots is the shot budget: exact when TargetRSE == 0, a cap
	// otherwise. Required.
	MaxShots int
	// TargetRSE, when positive, enables adaptive early stopping at this
	// relative standard error of the failure rate (e.g. 0.1 for 10%).
	TargetRSE float64
	// ShardSize overrides DefaultShardSize (for tests).
	ShardSize int
	// Seed selects the deterministic RNG stream family.
	Seed int64
	// Ctx, when non-nil, cancels the run cooperatively: dispatch stops at
	// the next shard boundary, in-flight shards drain, and RunBatch
	// returns a nil Result with an error wrapping ErrCanceled. The
	// partial aggregate is discarded, never persisted — an interrupted
	// point is recomputed whole on resume, which is what keeps resumed
	// stores byte-identical to uninterrupted runs.
	Ctx context.Context
}

// Result is the aggregate of one engine run. All fields except Workers are
// bit-identical for any worker count at a fixed (Config minus Workers).
type Result struct {
	Shots    int // shots actually committed
	Failures int
	Rate     float64 // Failures / Shots
	RSE      float64 // achieved relative standard error (+Inf at 0 failures)
	// CILow and CIHigh bound Rate with a 95% Wilson score interval.
	CILow, CIHigh float64
	Shards        int // shards committed
	Workers       int // pool size actually used
	EarlyStopped  bool
}

type shardResult struct {
	shard, shots, failures int
}

// Run executes the Monte-Carlo experiment described by cfg, building one
// shot closure per worker via newWorker. It is a thin wrapper over
// RunBatch: each worker's single-shot closure is looped over the shard by
// the engine, so results are bit-identical to the batched path.
func Run(cfg Config, newWorker WorkerFactory) (*Result, error) {
	if newWorker == nil {
		return nil, errors.New("mc: nil worker factory")
	}
	return RunBatch(cfg, func() (ShotBatchFunc, error) {
		shot, err := newWorker()
		if err != nil {
			return nil, err
		}
		return func(rng *rand.Rand, n int) int {
			failures := 0
			for i := 0; i < n; i++ {
				if shot(rng) {
					failures++
				}
			}
			return failures
		}, nil
	})
}

// RunBatch executes the Monte-Carlo experiment described by cfg on the
// batched worker path: each worker processes one shard (the scheduling
// quantum) per ShotBatchFunc call and commits a single per-batch failure
// count. Shard RNG streams and in-order commit are identical to Run, so
// results are bit-identical across the two paths and across worker counts.
func RunBatch(cfg Config, newWorker BatchWorkerFactory) (*Result, error) {
	if newWorker == nil {
		return nil, errors.New("mc: nil worker factory")
	}
	if cfg.MaxShots <= 0 {
		return nil, fmt.Errorf("mc: MaxShots must be positive, got %d", cfg.MaxShots)
	}
	if !(cfg.TargetRSE >= 0) { // NaN fails every comparison
		return nil, fmt.Errorf("mc: TargetRSE must be zero or positive, got %g", cfg.TargetRSE)
	}
	shardSize := cfg.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	numShards := (cfg.MaxShots + shardSize - 1) / shardSize
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > numShards {
		workers = numShards
	}

	// A nil Ctx yields a nil Done channel, which never selects — the
	// uncancellable fast path costs nothing.
	var ctxDone <-chan struct{}
	if cfg.Ctx != nil {
		ctxDone = cfg.Ctx.Done()
	}

	jobs := make(chan int)
	results := make(chan shardResult, workers)
	stop := make(chan struct{})
	var stopOnce sync.Once
	cancel := func() { stopOnce.Do(func() { close(stop) }) }

	// Dispatcher: hand out shard indices in order until done, cancelled,
	// or the run's context expires. On context cancellation dispatch just
	// stops — in-flight shards drain and commit, so the run ends at a
	// clean shard boundary.
	go func() {
		defer close(jobs)
		for i := 0; i < numShards; i++ {
			select {
			case jobs <- i:
			case <-stop:
				return
			case <-ctxDone:
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panicking worker must not crash the process: recover,
			// capture the stack, and fail the run like a factory error.
			// ForEach then isolates the failure to the one grid point
			// whose engine run this was.
			defer func() {
				if r := recover(); r != nil {
					obsWorkerPanics.Inc()
					errc <- &PanicError{Value: r, Stack: debug.Stack()}
					cancel()
				}
			}()
			batch, err := newWorker()
			if err != nil {
				errc <- err
				cancel()
				return
			}
			for shard := range jobs {
				n := shardSize
				if rem := cfg.MaxShots - shard*shardSize; rem < n {
					n = rem
				}
				rng := rand.New(rand.NewSource(ShardSeed(cfg.Seed, shard)))
				failures := batch(rng, n)
				select {
				case results <- shardResult{shard, n, failures}:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(results) }()

	// Aggregator: commit shard aggregates strictly in shard order so the
	// early-stopping cutoff — the first prefix meeting TargetRSE — is a
	// deterministic function of the shard streams alone. Shards completed
	// past the cutoff are speculative work and are discarded.
	res := &Result{Workers: workers}
	pending := make(map[int]shardResult)
	next := 0
	for r := range results {
		pending[r.shard] = r
		for {
			pr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if res.EarlyStopped {
				continue
			}
			res.Shots += pr.shots
			res.Failures += pr.failures
			res.Shards++
			obsShots.Add(int64(pr.shots))
			obsShards.Inc()
			// Meeting the target on the final shard saves nothing; only
			// flag a stop while budget actually remains.
			if cfg.TargetRSE > 0 && res.Shots < cfg.MaxShots &&
				RSE(res.Failures, res.Shots) <= cfg.TargetRSE {
				res.EarlyStopped = true
				obsEarlyStops.Inc()
				cancel()
			}
		}
	}
	cancel()
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	// Cancellation that raced with completion is not an interruption: if
	// every shard committed (or the run early-stopped on its own), the
	// result is whole and the context no longer matters.
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil && !res.EarlyStopped && res.Shots < cfg.MaxShots {
		return nil, fmt.Errorf("%w after %d of %d shots", ErrCanceled, res.Shots, cfg.MaxShots)
	}
	res.Rate = float64(res.Failures) / float64(res.Shots)
	res.RSE = RSE(res.Failures, res.Shots)
	res.CILow, res.CIHigh = WilsonInterval(res.Failures, res.Shots, DefaultZ)
	return res, nil
}
