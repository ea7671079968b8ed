package mc

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// bernoulliWorker builds a ShotFunc failing with probability p. All
// randomness comes from the engine-supplied RNG, so results must be a pure
// function of (Config minus Workers).
func bernoulliWorker(p float64) WorkerFactory {
	return func() (ShotFunc, error) {
		return func(rng *rand.Rand) bool { return rng.Float64() < p }, nil
	}
}

func TestFixedBudgetExact(t *testing.T) {
	res, err := Run(Config{Workers: 3, MaxShots: 10_000, Seed: 1}, bernoulliWorker(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 10_000 {
		t.Errorf("Shots = %d, want 10000", res.Shots)
	}
	if res.EarlyStopped {
		t.Error("fixed budget must not early-stop")
	}
	if res.Failures == 0 || math.Abs(res.Rate-0.05) > 0.01 {
		t.Errorf("rate %v (failures %d) implausible for p=0.05", res.Rate, res.Failures)
	}
	if !(res.CILow < 0.05 && 0.05 < res.CIHigh) {
		t.Errorf("95%% CI [%v, %v] should cover the true rate", res.CILow, res.CIHigh)
	}
}

func TestBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, cfg := range []Config{
		{MaxShots: 50_000, ShardSize: 512, Seed: 11},
		{MaxShots: 200_000, ShardSize: 512, Seed: 11, TargetRSE: 0.08},
		{MaxShots: 4_099, ShardSize: 1000, Seed: 5}, // ragged final shard
	} {
		var ref *Result
		for _, workers := range []int{1, 2, 4, 8} {
			c := cfg
			c.Workers = workers
			res, err := Run(c, bernoulliWorker(0.03))
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.Shots != ref.Shots || res.Failures != ref.Failures ||
				res.Shards != ref.Shards || res.EarlyStopped != ref.EarlyStopped {
				t.Errorf("cfg %+v workers=%d: got (shots=%d fails=%d shards=%d early=%v), want (%d %d %d %v)",
					cfg, workers, res.Shots, res.Failures, res.Shards, res.EarlyStopped,
					ref.Shots, ref.Failures, ref.Shards, ref.EarlyStopped)
			}
		}
	}
}

func TestEarlyStopping(t *testing.T) {
	const p = 0.05
	res, err := Run(Config{Workers: 4, MaxShots: 1_000_000, TargetRSE: 0.1, Seed: 3},
		bernoulliWorker(p))
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStopped {
		t.Fatal("p=0.05 with a 1M cap must stop early at 10% RSE")
	}
	if res.Shots >= 1_000_000 {
		t.Errorf("Shots = %d, expected far below the cap", res.Shots)
	}
	// ~100 failures reach 10% RSE at low rates; allow shard granularity.
	if res.Failures < 100 || res.Failures > 400 {
		t.Errorf("Failures = %d, expected ≈ 1/TargetRSE² plus one shard of overshoot", res.Failures)
	}
	if res.RSE > 0.1 {
		t.Errorf("achieved RSE %v exceeds the 0.1 target", res.RSE)
	}
	if !(res.CILow < p && p < res.CIHigh) {
		t.Errorf("early-stopped CI [%v, %v] should cover the true rate %v", res.CILow, res.CIHigh, p)
	}
}

// The early-stopped estimate and the fixed-budget estimate are two draws
// of the same quantity; they must agree within joint confidence bounds.
func TestEarlyStopConsistentWithFixedBudget(t *testing.T) {
	const p = 0.02
	adaptive, err := Run(Config{MaxShots: 2_000_000, TargetRSE: 0.08, Seed: 9}, bernoulliWorker(p))
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Run(Config{MaxShots: 300_000, Seed: 10}, bernoulliWorker(p))
	if err != nil {
		t.Fatal(err)
	}
	if !adaptive.EarlyStopped {
		t.Fatal("expected adaptive run to stop early")
	}
	if fixed.Rate < adaptive.CILow || fixed.Rate > adaptive.CIHigh {
		t.Errorf("fixed-budget rate %v outside adaptive CI [%v, %v]",
			fixed.Rate, adaptive.CILow, adaptive.CIHigh)
	}
}

func TestZeroFailureRun(t *testing.T) {
	res, err := Run(Config{Workers: 2, MaxShots: 5_000, TargetRSE: 0.1, Seed: 1},
		bernoulliWorker(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 || res.EarlyStopped {
		t.Errorf("impossible failures: %+v", res)
	}
	if res.Shots != 5_000 {
		t.Errorf("zero-failure run must exhaust the budget, got %d shots", res.Shots)
	}
	if !math.IsInf(res.RSE, 1) {
		t.Errorf("RSE = %v, want +Inf", res.RSE)
	}
	if res.CILow != 0 || res.CIHigh <= 0 {
		t.Errorf("CI [%v, %v] malformed for zero failures", res.CILow, res.CIHigh)
	}
}

// Meeting the RSE target exactly at budget exhaustion is not an early
// stop — nothing was saved.
func TestNoEarlyStopFlagOnFinalShard(t *testing.T) {
	res, err := Run(Config{MaxShots: 1024, ShardSize: 1024, TargetRSE: 10, Seed: 2},
		bernoulliWorker(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 1024 {
		t.Fatalf("Shots = %d, want the full 1024 budget", res.Shots)
	}
	if res.EarlyStopped {
		t.Error("EarlyStopped set although the whole budget was spent")
	}
}

func TestSeedChangesResults(t *testing.T) {
	a, err := Run(Config{MaxShots: 100_000, Seed: 1}, bernoulliWorker(0.03))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{MaxShots: 100_000, Seed: 2}, bernoulliWorker(0.03))
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures == b.Failures {
		t.Error("different seeds produced identical failure counts (astronomically unlikely)")
	}
}

func TestWorkerFactoryError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(Config{Workers: 4, MaxShots: 10_000}, func() (ShotFunc, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{MaxShots: 0}, bernoulliWorker(0.1)); err == nil {
		t.Error("MaxShots=0 must be rejected")
	}
	if _, err := Run(Config{MaxShots: 100}, nil); err == nil {
		t.Error("nil factory must be rejected")
	}
	for _, rse := range []float64{math.NaN(), -1} {
		if _, err := Run(Config{MaxShots: 100, TargetRSE: rse}, bernoulliWorker(0.1)); err == nil {
			t.Errorf("TargetRSE=%g must be rejected", rse)
		}
	}
}

// One factory call per worker, never more — workers own their state.
func TestFactoryCalledOncePerWorker(t *testing.T) {
	var calls atomic.Int64
	res, err := Run(Config{Workers: 4, MaxShots: 64_000, ShardSize: 1000},
		func() (ShotFunc, error) {
			calls.Add(1)
			return func(rng *rand.Rand) bool { return false }, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(res.Workers) {
		t.Errorf("factory called %d times for %d workers", got, res.Workers)
	}
}

func TestMoreWorkersThanShards(t *testing.T) {
	res, err := Run(Config{Workers: 64, MaxShots: 2_000, ShardSize: 1024, Seed: 4},
		bernoulliWorker(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 {
		t.Errorf("pool should shrink to the 2 available shards, got %d", res.Workers)
	}
	if res.Shots != 2_000 {
		t.Errorf("Shots = %d, want 2000", res.Shots)
	}
}

// bernoulliBatchWorker is bernoulliWorker on the batched path, drawing
// randomness identically to n sequential single-shot runs.
func bernoulliBatchWorker(p float64) BatchWorkerFactory {
	return func() (ShotBatchFunc, error) {
		return func(rng *rand.Rand, n int) int {
			failures := 0
			for i := 0; i < n; i++ {
				if rng.Float64() < p {
					failures++
				}
			}
			return failures
		}, nil
	}
}

// TestBatchMatchesPerShot pins the batched path against the per-shot
// wrapper: every aggregate must be bit-identical for any worker count,
// with and without early stopping.
func TestBatchMatchesPerShot(t *testing.T) {
	for _, cfg := range []Config{
		{MaxShots: 50_000, ShardSize: 512, Seed: 11},
		{MaxShots: 200_000, ShardSize: 512, Seed: 11, TargetRSE: 0.08},
		{MaxShots: 4_099, ShardSize: 1000, Seed: 5}, // ragged final shard
	} {
		for _, workers := range []int{1, 3, 8} {
			c := cfg
			c.Workers = workers
			perShot, err := Run(c, bernoulliWorker(0.03))
			if err != nil {
				t.Fatal(err)
			}
			batched, err := RunBatch(c, bernoulliBatchWorker(0.03))
			if err != nil {
				t.Fatal(err)
			}
			if perShot.Shots != batched.Shots || perShot.Failures != batched.Failures ||
				perShot.Shards != batched.Shards || perShot.EarlyStopped != batched.EarlyStopped {
				t.Errorf("cfg %+v workers=%d: per-shot (shots=%d fails=%d shards=%d early=%v) vs batched (%d %d %d %v)",
					cfg, workers, perShot.Shots, perShot.Failures, perShot.Shards, perShot.EarlyStopped,
					batched.Shots, batched.Failures, batched.Shards, batched.EarlyStopped)
			}
		}
	}
}

// TestBatchSizesCoverBudget checks the scheduling quantum: every batch is
// a whole shard (the final one possibly ragged) and the batch sizes sum
// to the budget exactly.
func TestBatchSizesCoverBudget(t *testing.T) {
	const budget, shard = 4_099, 1000
	var total atomic.Int64
	var ragged atomic.Int64
	res, err := RunBatch(Config{Workers: 2, MaxShots: budget, ShardSize: shard, Seed: 3},
		func() (ShotBatchFunc, error) {
			return func(rng *rand.Rand, n int) int {
				if n != shard {
					ragged.Add(1)
					if n != budget%shard {
						t.Errorf("batch size %d is neither a full shard nor the ragged remainder", n)
					}
				}
				total.Add(int64(n))
				return 0
			}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != budget {
		t.Errorf("Shots = %d, want %d", res.Shots, budget)
	}
	if got := total.Load(); got != budget {
		t.Errorf("batch sizes sum to %d, want %d", got, budget)
	}
	if got := ragged.Load(); got != 1 {
		t.Errorf("saw %d ragged batches, want exactly 1", got)
	}
}

func TestBatchNilFactory(t *testing.T) {
	if _, err := RunBatch(Config{MaxShots: 100}, nil); err == nil {
		t.Error("nil batch factory must be rejected")
	}
}
