package sim

import (
	"encoding/json"
	"fmt"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/store"
)

// StoreOptions wires a memory experiment into the persistent result store.
// Kind and Config form the point's content address (store.Key): Config must
// describe the generator of the point — everything that fixes its RNG
// stream family and physics (sizes, rates, policy/decoder names, rounds,
// seed, adaptive target) — and must NOT include the shot budget, which is
// the one accumulating dimension (see DESIGN.md §7).
type StoreOptions struct {
	Store  *store.Store
	Resume bool
	Kind   string
	Config any
}

// segmentSalt disambiguates growth-segment streams from the engine's shard
// streams: ShardSeed(seed, k) == DeriveSeed(seed, k) for k >= 0, so segment
// seeds use a negative leading path element that no shard index can ever
// produce. Segment 0 is o.Seed itself — the stream a storeless run uses —
// which is what makes a resumed table byte-identical to an uninterrupted
// one.
const segmentSalt = int64(-0x5347) // "SG"

// SegmentSeed returns the RNG seed of growth segment seq of a stored
// memory point whose base seed is seed. Segment 0 is the base seed.
func SegmentSeed(seed int64, seq int) int64 {
	if seq == 0 {
		return seed
	}
	return mc.DeriveSeed(seed, segmentSalt, int64(seq))
}

// memoryPayload is the replay state stored with each segment row. Counts
// live in the row itself (so the store can merge them); the payload holds
// the latest cumulative flags and DEM diagnostics.
type memoryPayload struct {
	EarlyStopped bool `json:"early_stopped,omitempty"`
	Detectors    int  `json:"detectors,omitempty"`
	Mechanisms   int  `json:"mechanisms,omitempty"`
	Truncations  int  `json:"truncations,omitempty"`
	Rounds       int  `json:"rounds"`
}

// RunMemoryStored is RunMemoryOpts behind the persistent store: a point
// already complete in the store is served without touching the sampler or
// decoder, a partially-stored point computes only the missing shots under a
// fresh segment stream and merges (Wilson CI recomputed from the merged
// counts), and a missing point computes in full and commits. fromStore
// reports whether the result required no Monte-Carlo work.
//
// Completeness is relative to the request: a fixed budget is complete once
// the merged shots reach it; an adaptive request (TargetRSE > 0) is
// complete once a stored run early-stopped at the target, the merged
// counts already meet the target, or the cap is exhausted.
func RunMemoryStored(c *code.Code, sampleModel, decodeModel *noise.Model, o RunOptions, so StoreOptions) (res *MemoryResult, fromStore bool, err error) {
	if so.Store == nil {
		res, err = RunMemoryOpts(c, sampleModel, decodeModel, o)
		return res, false, err
	}
	key, err := store.Key(so.Kind, so.Config)
	if err != nil {
		return nil, false, err
	}
	pt, found := so.Store.Get(key)

	var pay memoryPayload
	if found && len(pt.Payload) > 0 {
		if err := json.Unmarshal(pt.Payload, &pay); err != nil {
			// A foreign payload under this key means the config hash is
			// being reused across schemas; recompute rather than guess.
			found = false
		}
	}
	if found && pay.Rounds != 0 && pay.Rounds != o.Rounds {
		return nil, false, fmt.Errorf("sim: store key %s holds rounds=%d, request has rounds=%d (config under-hashed?)", key, pay.Rounds, o.Rounds)
	}

	complete := func(shots, failures int, early bool) bool {
		if o.TargetRSE > 0 {
			return early || shots >= o.Shots || mc.RSE(failures, shots) <= o.TargetRSE
		}
		return shots >= o.Shots
	}

	if so.Resume && found && pt.Shots > 0 && complete(pt.Shots, pt.Failures, pay.EarlyStopped) {
		return replayMemory(pt, pay), true, nil
	}

	// Fresh point (or Resume off): one run at the full request on the
	// base-seed stream, exactly what a storeless run would do.
	if !so.Resume || !found || pt.Shots == 0 {
		run, err := RunMemoryOpts(c, sampleModel, decodeModel, o)
		if err != nil {
			return nil, false, err
		}
		pay := payloadOf(run, o.Rounds)
		if err := appendSegment(so, key, 0, run.Shots, run.Failures,
			complete(run.Shots, run.Failures, run.EarlyStopped), pay); err != nil {
			return nil, false, err
		}
		return run, false, nil
	}

	// Top up an incomplete point with only the missing shots. With an
	// adaptive target, each chunk is sized from the MERGED counts via the
	// planning inverse of the RSE formula — the stored failures already
	// count toward the target, so the engine must not re-earn it from
	// zero. Chunks iterate because the size estimate is itself noisy.
	mergedShots, mergedFailures := pt.Shots, pt.Failures
	seg := pt.NextSeq
	var lastPay memoryPayload
	for {
		remaining := o.Shots - mergedShots
		if remaining <= 0 {
			break
		}
		segOpts := o
		segOpts.Seed = SegmentSeed(o.Seed, seg)
		segOpts.TargetRSE = 0
		chunk := remaining
		if o.TargetRSE > 0 {
			if mergedFailures > 0 {
				rate := float64(mergedFailures) / float64(mergedShots)
				if need := mc.ShotsForRSE(rate, o.TargetRSE) - mergedShots; need < chunk {
					chunk = need
				}
				if chunk < mc.DefaultShardSize {
					chunk = mc.DefaultShardSize // no confetti segments
				}
				if chunk > remaining {
					chunk = remaining
				}
			} else {
				// No failures anywhere yet: the merged RSE is +Inf and the
				// planning inverse is undefined; let the engine stop this
				// segment adaptively within the cap.
				segOpts.TargetRSE = o.TargetRSE
			}
		}
		segOpts.Shots = chunk
		run, err := RunMemoryOpts(c, sampleModel, decodeModel, segOpts)
		if err != nil {
			return nil, false, err
		}
		mergedShots += run.Shots
		mergedFailures += run.Failures
		lastPay = payloadOf(run, o.Rounds)
		if err := appendSegment(so, key, seg, run.Shots, run.Failures,
			complete(mergedShots, mergedFailures, run.EarlyStopped), lastPay); err != nil {
			return nil, false, err
		}
		seg++
		if o.TargetRSE == 0 || run.EarlyStopped ||
			complete(mergedShots, mergedFailures, run.EarlyStopped) {
			break
		}
	}
	merged, _ := so.Store.Get(key)
	return replayMemory(merged, lastPay), false, nil
}

func payloadOf(run *MemoryResult, rounds int) memoryPayload {
	return memoryPayload{
		EarlyStopped: run.EarlyStopped,
		Detectors:    run.Detectors,
		Mechanisms:   run.Mechanisms,
		Truncations:  run.Truncations,
		Rounds:       rounds,
	}
}

func appendSegment(so StoreOptions, key string, seq, shots, failures int, complete bool, pay memoryPayload) error {
	cfg, err := json.Marshal(so.Config)
	if err != nil {
		return err
	}
	canon, err := store.Canonicalize(cfg)
	if err != nil {
		return err
	}
	pb, err := json.Marshal(pay)
	if err != nil {
		return err
	}
	return so.Store.Append(store.Row{
		Key: key, Kind: so.Kind, Seq: seq,
		Shots: shots, Failures: failures, Complete: complete,
		Config: canon, Payload: pb,
	})
}

// replayMemory reconstructs a MemoryResult from merged store counts using
// exactly the arithmetic of the compute path (same divisions, same Wilson
// interval, same per-round inversion), so a served point renders
// byte-identically to the run that produced it.
func replayMemory(pt store.Point, pay memoryPayload) *MemoryResult {
	res := &MemoryResult{
		Shots:            pt.Shots,
		Failures:         pt.Failures,
		Rounds:           pay.Rounds,
		LogicalErrorRate: pt.Rate,
		CILow:            pt.CILow,
		CIHigh:           pt.CIHigh,
		RSE:              mc.RSE(pt.Failures, pt.Shots),
		EarlyStopped:     pay.EarlyStopped,
		Detectors:        pay.Detectors,
		Mechanisms:       pay.Mechanisms,
		Truncations:      pay.Truncations,
	}
	res.PerRound = PerRoundRate(res.LogicalErrorRate, pay.Rounds)
	return res
}

// basisConfig nests the caller's point config under an explicit basis tag:
// RunMemoryBothStored stores its Z and X halves as two points so per-basis
// counts stay mergeable across sessions.
type basisConfig struct {
	Basis  string `json:"basis"`
	Config any    `json:"config"`
}

// RunMemoryBothStored runs memory-Z and memory-X behind the persistent
// store and returns the combined per-round logical error rate (the union
// rate of either logical failing). o.Basis is ignored: Z runs at o.Seed
// and X at o.Seed+1, and the halves are stored as separate points (config
// nested under a basis tag). fromStore reports whether *both* halves were
// served without Monte-Carlo work.
func RunMemoryBothStored(c *code.Code, model *noise.Model, o RunOptions, so StoreOptions) (z, x *MemoryResult, combined float64, fromStore bool, err error) {
	zo := o
	zo.Basis = lattice.ZCheck
	zso := so
	zso.Config = basisConfig{Basis: "z", Config: so.Config}
	z, zStored, err := RunMemoryStored(c, model, nil, zo, zso)
	if err != nil {
		return nil, nil, 0, false, err
	}
	xo := o
	xo.Basis = lattice.XCheck
	xo.Seed = o.Seed + 1
	xso := so
	xso.Config = basisConfig{Basis: "x", Config: so.Config}
	x, xStored, err := RunMemoryStored(c, model, nil, xo, xso)
	if err != nil {
		return nil, nil, 0, false, err
	}
	combined = 1 - (1-z.PerRound)*(1-x.PerRound)
	return z, x, combined, zStored && xStored, nil
}
