package experiments

import (
	"encoding/json"
	"errors"
	"math/rand"
	"sync/atomic"

	"surfdeformer/internal/mc"
	"surfdeformer/internal/store"
)

// Stream-family kinds for per-point seed derivation. Every experiment
// derives each grid point's randomness from (Options.Seed, kind, point
// content) via mc.DeriveSeed, so a point's fault pattern and Monte-Carlo
// streams never depend on grid position, execution order, worker count, or
// which subset of points a resumed session still has to compute. The kinds
// are negative so experiment streams can never collide with the engine's
// shard streams (mc.ShardSeed covers the non-negative path space).
const (
	kindFig11a   int64 = -2
	kindFig11b   int64 = -3
	kindFig11c   int64 = -4
	kindFig12    int64 = -5
	kindFig13a   int64 = -6
	kindFig13b   int64 = -7
	kindFig14a   int64 = -8
	kindFig14b   int64 = -9
	kindTable2   int64 = -10
	kindPipeline int64 = -11
	kindSweep    int64 = -12
	kindFit      int64 = -13
	kindTraj     int64 = -14
	// kindCalibrate must stay -14: calibration store keys (calConfig) do
	// not include it, so a new value would serve stored rows beside fresh
	// ones drawn from different streams. Sharing kindTraj's value is
	// safe: a calibration path (kind, p, d) is one element longer than a
	// trajectory path (kind, j), and DeriveSeed chains of different
	// lengths are independent streams.
	kindCalibrate int64 = -14
)

// pointSeed derives the deterministic seed of one grid point.
func (o Options) pointSeed(kind int64, parts ...int64) int64 {
	return mc.DeriveSeed(o.Seed, append([]int64{kind}, parts...)...)
}

// pointRNG returns a fresh RNG for one grid point. Each point owns its
// generator: nothing is shared across points, so point-level parallelism
// cannot reorder draws (the bug the old shared Options rng had).
func (o Options) pointRNG(kind int64, parts ...int64) *rand.Rand {
	return rand.New(rand.NewSource(o.pointSeed(kind, parts...)))
}

// forEachPoint fans the grid points of one experiment out over the
// point-level worker pool. PointWorkers <= 1 runs serially; any value
// yields identical results because every point is self-seeded. When
// Options.Progress is set, the pool reports completion on its ticker for
// the duration of the grid.
func (o Options) forEachPoint(n int, fn func(i int) error) error {
	if o.Progress == nil {
		return mc.ForEach(o.Ctx, o.PointWorkers, n, fn)
	}
	o.Progress.Begin(n)
	defer o.Progress.End()
	return mc.ForEach(o.Ctx, o.PointWorkers, n, func(i int) error {
		err := fn(i)
		o.Progress.PointDone()
		return err
	})
}

// runGrid is the one way an evaluation grid runs: it computes fn for every
// point on the point-level pool and returns the rows in point order. On
// isolated point failures (a panicking worker, exhausted transient
// retries) the other rows are valid and already committed to the store, so
// it returns the finished ones, still in point order, alongside the
// aggregate error, for callers to render before surfacing the failure
// report. Cancellation or any other error returns no rows.
func runGrid[P, R any](opt Options, points []P, fn func(P) (R, error)) ([]R, error) {
	rows := make([]R, len(points))
	done := make([]bool, len(points))
	err := opt.forEachPoint(len(points), func(i int) error {
		row, err := fn(points[i])
		if err != nil {
			return err
		}
		rows[i], done[i] = row, true
		return nil
	})
	if err == nil {
		return rows, nil
	}
	var perrs *mc.PointErrors
	if !errors.As(err, &perrs) || errors.Is(err, mc.ErrCanceled) {
		return nil, err
	}
	var finished []R
	for i, row := range rows {
		if done[i] {
			finished = append(finished, row)
		}
	}
	return finished, err
}

// RunStats counts grid points computed versus served from the store. Share
// one instance via Options.Stats to observe a whole multi-experiment run;
// methods are safe under the point-level pool and on a nil receiver.
type RunStats struct {
	computed atomic.Int64
	skipped  atomic.Int64
}

// AddComputed records a point that ran its full computation.
func (s *RunStats) AddComputed() {
	if s != nil {
		s.computed.Add(1)
	}
}

// AddSkipped records a point served from the store.
func (s *RunStats) AddSkipped() {
	if s != nil {
		s.skipped.Add(1)
	}
}

// Computed reports how many points ran their full computation.
func (s *RunStats) Computed() int {
	if s == nil {
		return 0
	}
	return int(s.computed.Load())
}

// Skipped reports how many points were served from the store.
func (s *RunStats) Skipped() int {
	if s == nil {
		return 0
	}
	return int(s.skipped.Load())
}

// cachedRow is the trial-style store path: experiments whose points are
// whole rows (no accumulating shot counts) serve a completed point's
// payload verbatim on resume and commit freshly computed rows as
// single-segment, complete entries. The payload type P must JSON
// round-trip exactly (float64 survives Go's shortest-round-trip encoding),
// which is what keeps a resumed table byte-identical to a fresh one.
func cachedRow[P any](opt Options, kind string, cfg any, compute func() (P, error)) (P, error) {
	var zero P
	if opt.Store == nil {
		out, err := compute()
		if err == nil {
			opt.Stats.AddComputed()
		}
		return out, err
	}
	key, err := store.Key(kind, cfg)
	if err != nil {
		return zero, err
	}
	if opt.Resume {
		if pt, ok := opt.Store.Get(key); ok && pt.Complete && len(pt.Payload) > 0 {
			var out P
			if err := json.Unmarshal(pt.Payload, &out); err == nil {
				opt.Stats.AddSkipped()
				return out, nil
			}
			// Undecodable payload: fall through and recompute.
		}
	}
	out, err := compute()
	if err != nil {
		return zero, err
	}
	payload, err := json.Marshal(out)
	if err != nil {
		return zero, err
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return zero, err
	}
	canon, err := store.Canonicalize(cfgJSON)
	if err != nil {
		return zero, err
	}
	if err := opt.Store.Append(store.Row{
		Key: key, Kind: kind, Seq: 0, Complete: true, Config: canon, Payload: payload,
	}); err != nil {
		return zero, err
	}
	opt.Stats.AddComputed()
	return out, nil
}
