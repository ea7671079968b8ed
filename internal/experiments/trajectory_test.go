package experiments

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"surfdeformer/internal/store"
	"surfdeformer/internal/traj"
)

func trajTestOptions() Options {
	opt := QuickOptions()
	opt.Trials = 3
	return opt
}

// TestTrajectoryDeterministic is the acceptance gate of the trajectory
// scan: results are bit-identical for any point-worker count, and a scan
// interrupted after a partial trajectory budget resumes byte-identically —
// computing only the missing trajectories.
func TestTrajectoryDeterministic(t *testing.T) {
	opt := trajTestOptions()
	cfg := DefaultTrajConfig(opt)
	modes := DefaultTrajModes()

	serial, err := TrajectoryScan(opt, cfg, modes)
	if err != nil {
		t.Fatal(err)
	}
	opt.PointWorkers = 4
	parallel, err := TrajectoryScan(opt, cfg, modes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("worker count changed the scan:\nserial   %+v\nparallel %+v", serial, parallel)
	}

	// Interrupted session: only 2 of the 3 trajectories per arm land in the
	// store.
	st, err := store.Open(filepath.Join(t.TempDir(), "traj.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	partial := opt
	partial.Trials = 2
	partial.Store = st
	partial.Stats = &RunStats{}
	if _, err := TrajectoryScan(partial, cfg, modes); err != nil {
		t.Fatal(err)
	}
	if c := partial.Stats.Computed(); c != 2*len(modes) {
		t.Fatalf("interrupted session computed %d trajectories, want %d", c, 2*len(modes))
	}

	// Resumed session over the full budget: exactly the missing trajectory
	// per arm computes, and the table matches the uninterrupted run.
	resumed := opt
	resumed.Store = st
	resumed.Resume = true
	resumed.Stats = &RunStats{}
	rows, err := TrajectoryScan(resumed, cfg, modes)
	if err != nil {
		t.Fatal(err)
	}
	if c, s := resumed.Stats.Computed(), resumed.Stats.Skipped(); c != len(modes) || s != 2*len(modes) {
		t.Fatalf("resume computed %d / skipped %d, want %d / %d", c, s, len(modes), 2*len(modes))
	}
	if !reflect.DeepEqual(serial, rows) {
		t.Fatalf("resumed scan differs from fresh scan:\nfresh   %+v\nresumed %+v", serial, rows)
	}

	// Byte-identical rendering (the property the CI resume job diffs on).
	var fresh, again bytes.Buffer
	RenderTraj(&fresh, cfg.Horizon, serial)
	RenderTraj(&again, cfg.Horizon, rows)
	if !bytes.Equal(fresh.Bytes(), again.Bytes()) {
		t.Error("rendered tables differ between fresh and resumed scans")
	}

	// A fully-stored re-run computes nothing.
	replay := resumed
	replay.Stats = &RunStats{}
	if _, err := TrajectoryScan(replay, cfg, modes); err != nil {
		t.Fatal(err)
	}
	if c := replay.Stats.Computed(); c != 0 {
		t.Errorf("fully-stored re-run computed %d trajectories", c)
	}
}

// TestTrajectoryScanShape sanity-checks the aggregate rows of a small scan.
func TestTrajectoryScanShape(t *testing.T) {
	opt := trajTestOptions()
	opt.Trials = 4
	opt.PointWorkers = 2
	cfg := DefaultTrajConfig(opt)
	rows, err := TrajectoryScan(opt, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DefaultTrajModes()) {
		t.Fatalf("%d rows, want one per default mode", len(rows))
	}
	for _, r := range rows {
		if r.Trajectories != opt.Trials {
			t.Errorf("%s: %d trajectories, want %d", r.Mode, r.Trajectories, opt.Trials)
		}
		for q := 0; q < 4; q++ {
			if r.Survival[q] < 0 || r.Survival[q] > 1 {
				t.Errorf("%s: survival[%d] = %v outside [0,1]", r.Mode, q, r.Survival[q])
			}
			if q > 0 && r.Survival[q] > r.Survival[q-1] {
				t.Errorf("%s: survival increases over time: %v", r.Mode, r.Survival)
			}
		}
		if r.Mode == traj.ModeUntreated.String() {
			if r.MeanDeformations != 0 || r.MeanRecoveries != 0 || r.Severed != 0 {
				t.Errorf("untreated arm acted on the code: %+v", r)
			}
			if r.MeanReweights != 0 || r.ReweightedFrac != 0 || r.MeanRateErr != -1 {
				t.Errorf("untreated arm updated decode priors: %+v", r)
			}
		}
		if r.Mode == traj.ModeReweightOnly.String() {
			if r.MeanDeformations != 0 || r.MeanRecoveries != 0 || r.Severed != 0 {
				t.Errorf("reweight-only arm deformed the code: %+v", r)
			}
			if r.MeanReweights == 0 || r.ReweightedFrac <= 0 {
				t.Errorf("reweight-only arm never engaged its tier: %+v", r)
			}
		}
		if r.Mode == traj.ModeASC.String() && r.MeanReweights != 0 {
			t.Errorf("asc-s arm (no reweight tier) updated decode priors: %+v", r)
		}
		if r.ReweightedFrac < 0 || r.ReweightedFrac > 1 || r.MismatchFrac < 0 || r.MismatchFrac > 1 {
			t.Errorf("%s: reweight fractions outside [0,1]: %+v", r.Mode, r)
		}
	}
	// The structured table carries one row per arm.
	if tab := TrajTable(rows); len(tab.Rows) != len(rows) {
		t.Errorf("TrajTable has %d rows, want %d", len(tab.Rows), len(rows))
	}
}

// TestTrajectoryScanRejectsBadTrials pins that a trial count below 1 is a
// validation error before any trajectory runs, on both the fixed-budget and
// the adaptive-stopping path, instead of a table of NaN or a panic.
func TestTrajectoryScanRejectsBadTrials(t *testing.T) {
	for _, trials := range []int{0, -3} {
		for _, adaptive := range []bool{false, true} {
			opt := trajTestOptions()
			opt.Trials, opt.AdaptiveStop = trials, adaptive
			opt.Store, opt.Stats = testStore(t), &RunStats{}
			rows, err := TrajectoryScan(opt, DefaultTrajConfig(opt), nil)
			if err == nil || rows != nil {
				t.Errorf("trials %d (adaptive %v): %d rows, %v; want a validation error",
					trials, adaptive, len(rows), err)
			}
			if opt.Store.Len() != 0 || opt.Stats.Computed() != 0 {
				t.Errorf("trials %d (adaptive %v): %d store rows, %d computed points before the validation error",
					trials, adaptive, opt.Store.Len(), opt.Stats.Computed())
			}
		}
	}
}

// TestLayoutTrajectoryScan lifts the determinism/resume acceptance gate to
// the layout axis: a 2-patch scan with a surgery schedule is bit-identical
// for any worker count, resumes byte-identically from a partial store, and
// populates the router aggregates.
func TestLayoutTrajectoryScan(t *testing.T) {
	opt := trajTestOptions()
	cfg := DefaultTrajConfig(opt)
	cfg.Layout = &traj.LayoutConfig{Patches: 2, Program: "simon"}
	modes := DefaultTrajModes()

	serial, err := TrajectoryScan(opt, cfg, modes)
	if err != nil {
		t.Fatal(err)
	}
	opt.PointWorkers = 4
	parallel, err := TrajectoryScan(opt, cfg, modes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("worker count changed the layout scan:\nserial   %+v\nparallel %+v", serial, parallel)
	}
	for _, r := range serial {
		if r.MeanOpsTotal <= 0 {
			t.Errorf("%s: layout scan without a surgery schedule: %+v", r.Mode, r)
		}
		if r.ProgramDoneFrac < 0 || r.ProgramDoneFrac > 1 || r.ChannelBlockedFrac < 0 || r.ChannelBlockedFrac > 1 {
			t.Errorf("%s: router fractions outside [0,1]: %+v", r.Mode, r)
		}
		if r.MeanOpsCompleted > r.MeanOpsTotal {
			t.Errorf("%s: completed %v of %v scheduled ops", r.Mode, r.MeanOpsCompleted, r.MeanOpsTotal)
		}
	}

	// Interrupted at 2 of 3 trajectories per arm, then resumed: only the
	// missing trajectory computes, and rows render byte-identically.
	st, err := store.Open(filepath.Join(t.TempDir(), "layout-traj.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	partial := opt
	partial.Trials = 2
	partial.Store = st
	partial.Stats = &RunStats{}
	if _, err := TrajectoryScan(partial, cfg, modes); err != nil {
		t.Fatal(err)
	}
	resumed := opt
	resumed.Store = st
	resumed.Resume = true
	resumed.Stats = &RunStats{}
	rows, err := TrajectoryScan(resumed, cfg, modes)
	if err != nil {
		t.Fatal(err)
	}
	if c, s := resumed.Stats.Computed(), resumed.Stats.Skipped(); c != len(modes) || s != 2*len(modes) {
		t.Fatalf("layout resume computed %d / skipped %d, want %d / %d", c, s, len(modes), 2*len(modes))
	}
	if !reflect.DeepEqual(serial, rows) {
		t.Fatalf("resumed layout scan differs from fresh scan:\nfresh   %+v\nresumed %+v", serial, rows)
	}
	var fresh, again bytes.Buffer
	RenderTraj(&fresh, cfg.Horizon, serial)
	RenderTraj(&again, cfg.Horizon, rows)
	if !bytes.Equal(fresh.Bytes(), again.Bytes()) {
		t.Error("rendered layout tables differ between fresh and resumed scans")
	}

	// The layout axis is part of the store identity: the single-patch scan
	// must not be served rows from the layout store.
	single := opt
	single.Store = st
	single.Resume = true
	single.Stats = &RunStats{}
	scfg := DefaultTrajConfig(opt)
	if _, err := TrajectoryScan(single, scfg, modes); err != nil {
		t.Fatal(err)
	}
	if s := single.Stats.Skipped(); s != 0 {
		t.Errorf("single-patch scan served %d rows from the layout store", s)
	}
}
