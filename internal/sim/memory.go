package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/noise"
)

// Decoder consumes the flagged detectors of one shot and predicts whether
// the logical observable flipped.
type Decoder interface {
	DecodeToObs(flagged []int32) bool
}

// DecoderFactory builds a decoder for a DEM.
type DecoderFactory func(*DEM) (Decoder, error)

// TruncationCounter is optionally implemented by decoders that detect
// syndromes they failed to annihilate (partial corrections). The counter
// is cumulative over the decoder instance's lifetime; the engine
// aggregates per-worker deltas into MemoryResult.Truncations so degraded
// decoding surfaces in sweep results instead of being silently swallowed.
type TruncationCounter interface {
	TruncationCount() int
}

// MemoryResult summarizes a Monte-Carlo memory experiment.
type MemoryResult struct {
	Shots    int
	Failures int
	Rounds   int
	// LogicalErrorRate is the per-shot failure probability.
	LogicalErrorRate float64
	// PerRound converts the shot failure rate into a per-round logical
	// error rate via p_shot = (1 - (1-2λ)^R)/2.
	PerRound float64
	// CILow and CIHigh bound LogicalErrorRate with a 95% Wilson score
	// interval; RSE is its achieved relative standard error (+Inf when no
	// failures were observed).
	CILow, CIHigh float64
	RSE           float64
	// EarlyStopped reports that the adaptive stopping rule ended the run
	// before the shot budget was exhausted.
	EarlyStopped bool
	// Detectors and Mechanisms describe the DEM size (diagnostics).
	Detectors  int
	Mechanisms int
	// Truncations counts shots whose syndrome the decoder reported it
	// could not fully annihilate (see TruncationCounter). Always 0 on
	// well-formed decoding graphs. Diagnostic only: unlike the
	// deterministic aggregates above it may include speculative shards
	// discarded by early stopping, so it is not bit-stable across worker
	// counts — but any nonzero value means decoding was degraded.
	Truncations int
}

// RunOptions configures the Monte-Carlo engine path of a memory
// experiment. The zero value of the tuning knobs is always valid: Workers
// <= 0 uses every CPU, TargetRSE == 0 runs the exact Shots budget, and a
// nil Cache uses the shared process-wide DEM cache.
type RunOptions struct {
	Rounds  int
	Basis   lattice.CheckType
	Factory DecoderFactory
	// Shots is the budget: exact when TargetRSE == 0, a cap otherwise.
	Shots int
	// Workers sizes the engine pool; results are bit-identical for any
	// value (see package mc).
	Workers int
	// TargetRSE enables adaptive early stopping at this relative standard
	// error of the failure rate (0 disables).
	TargetRSE float64
	Seed      int64
	// Ctx, when non-nil, cancels the engine run cooperatively at shard
	// boundaries (see mc.Config.Ctx); the run returns an error wrapping
	// mc.ErrCanceled and nothing is committed for the point.
	Ctx context.Context
	// Cache overrides the shared DEM cache (tests).
	Cache *DEMCache
}

// RunMemoryOpts performs a memory experiment on the concurrent engine:
// shots are drawn from sampleModel while the decoder is built from
// decodeModel. Passing decodeModel == nil decodes with the sampling model
// (the matched, defect-aware case); distinct models form the honest model
// of an untreated dynamic defect — the hardware error rates spike but the
// decoder keeps its calibrated nominal priors. Both models share the same
// circuit, so the detector layout is identical.
func RunMemoryOpts(c *code.Code, sampleModel, decodeModel *noise.Model, o RunOptions) (*MemoryResult, error) {
	if o.Factory == nil {
		return nil, fmt.Errorf("sim: RunOptions.Factory is required")
	}
	cache := o.Cache
	if cache == nil {
		cache = sharedDEMCache
	}
	sampleDEM, err := cache.BuildDEM(c, sampleModel, o.Rounds, o.Basis)
	if err != nil {
		return nil, err
	}
	decodeDEM := sampleDEM
	if decodeModel != nil && decodeModel != sampleModel {
		decodeDEM, err = cache.BuildDEM(c, decodeModel, o.Rounds, o.Basis)
		if err != nil {
			return nil, err
		}
		if decodeDEM.NumDets != sampleDEM.NumDets {
			return nil, errDetectorMismatch
		}
	}
	var truncations atomic.Int64
	agg, err := mc.RunBatch(mc.Config{
		Workers:   o.Workers,
		MaxShots:  o.Shots,
		TargetRSE: o.TargetRSE,
		Seed:      o.Seed,
		Ctx:       o.Ctx,
	}, func() (mc.ShotBatchFunc, error) {
		dec, err := o.Factory(decodeDEM)
		if err != nil {
			return nil, err
		}
		tc, _ := dec.(TruncationCounter)
		lastTrunc := 0
		sampler := NewSampler(sampleDEM)
		// Batched hot loop: one closure call per shard. Shot's returned
		// slice is sampler-owned scratch consumed immediately by the
		// decoder, so the whole loop is allocation-free at steady state;
		// the truncation delta is read once per batch, off the hot loop.
		return func(rng *rand.Rand, n int) int {
			failures := 0
			for i := 0; i < n; i++ {
				flagged, obs := sampler.Shot(rng)
				if dec.DecodeToObs(flagged) != obs {
					failures++
				}
			}
			if tc != nil {
				if now := tc.TruncationCount(); now != lastTrunc {
					truncations.Add(int64(now - lastTrunc))
					lastTrunc = now
				}
			}
			return failures
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &MemoryResult{
		Shots:            agg.Shots,
		Failures:         agg.Failures,
		Rounds:           o.Rounds,
		LogicalErrorRate: agg.Rate,
		CILow:            agg.CILow,
		CIHigh:           agg.CIHigh,
		RSE:              agg.RSE,
		EarlyStopped:     agg.EarlyStopped,
		Detectors:        sampleDEM.NumDets,
		Mechanisms:       len(sampleDEM.Mechs),
		Truncations:      int(truncations.Load()),
	}
	res.PerRound = PerRoundRate(res.LogicalErrorRate, o.Rounds)
	return res, nil
}

var errDetectorMismatch = errMismatch{}

type errMismatch struct{}

func (errMismatch) Error() string {
	return "sim: sampling and decoding DEMs disagree on detector layout"
}

// PerRoundRate inverts p_shot = (1 - (1-2λ)^R)/2 for the per-round logical
// error rate λ, clamping at the fully-random limit.
func PerRoundRate(pShot float64, rounds int) float64 {
	if pShot >= 0.5 {
		return 0.5
	}
	if pShot <= 0 {
		return 0
	}
	return (1 - math.Pow(1-2*pShot, 1/float64(rounds))) / 2
}

// ShotRate is the inverse of PerRoundRate: the failure probability of R
// rounds given a per-round rate.
func ShotRate(perRound float64, rounds int) float64 {
	if perRound >= 0.5 {
		return 0.5
	}
	return (1 - math.Pow(1-2*perRound, float64(rounds))) / 2
}
