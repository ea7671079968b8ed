package experiments

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"surfdeformer/internal/mc"
	"surfdeformer/internal/store"
)

func testStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// The satellite regression for the old shared-rng bug: every grid
// experiment must produce identical rows whether points run serially or on
// a parallel pool, because each point seeds itself from its own content.
func TestSerialParallelEquality(t *testing.T) {
	serial := QuickOptions()
	parallel := QuickOptions()
	parallel.PointWorkers = 4

	t.Run("MemorySweep", func(t *testing.T) {
		grid := DefaultSweepGrid(serial)
		a, err := MemorySweep(serial, grid, SweepEngine{MaxShots: 1000})
		if err != nil {
			t.Fatal(err)
		}
		b, err := MemorySweep(parallel, grid, SweepEngine{MaxShots: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sweep rows differ across point-worker counts:\n%+v\n%+v", a, b)
		}
	})
	t.Run("Fig11a", func(t *testing.T) {
		a, err := Fig11a(serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Fig11a(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("fig11a rows differ across point-worker counts:\n%+v\n%+v", a, b)
		}
	})
	t.Run("Fig11c", func(t *testing.T) {
		a, err := Fig11c(serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Fig11c(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("fig11c rows differ across point-worker counts:\n%+v\n%+v", a, b)
		}
	})
	t.Run("Table2", func(t *testing.T) {
		a, err := Table2(serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Table2(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("table2 rows differ across point-worker counts:\n%+v\n%+v", a, b)
		}
	})
}

// Resume must compute only the points missing from the store and still
// render a table byte-identical to an uninterrupted serial run.
func TestResumeSkipsCompletedSweepPoints(t *testing.T) {
	base := QuickOptions()
	grid := DefaultSweepGrid(base)
	if len(grid) < 3 {
		t.Fatalf("quick grid too small for the test: %d points", len(grid))
	}
	eng := SweepEngine{MaxShots: 1000}

	fresh, err := MemorySweep(base, grid, eng)
	if err != nil {
		t.Fatal(err)
	}
	mcPoints := 0 // severed points never reach the store
	for _, r := range fresh {
		if !r.Severed {
			mcPoints++
		}
	}

	// "Interrupted" session: only a prefix of the grid lands in the store.
	st := testStore(t)
	interrupted := base
	interrupted.Store = st
	interrupted.Stats = &RunStats{}
	prefix := grid[:len(grid)/2]
	if _, err := MemorySweep(interrupted, prefix, eng); err != nil {
		t.Fatal(err)
	}
	stored := st.Len()
	if stored == 0 {
		t.Fatal("interrupted session stored nothing")
	}

	// Resumed session over the full grid, parallel for good measure.
	resumed := base
	resumed.Store = st
	resumed.Resume = true
	resumed.PointWorkers = 4
	resumed.Stats = &RunStats{}
	rows, err := MemorySweep(resumed, grid, eng)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Stats.Skipped(); got != stored {
		t.Errorf("resume skipped %d points, want %d (the stored ones)", got, stored)
	}
	if got := resumed.Stats.Computed(); got != mcPoints-stored {
		t.Errorf("resume computed %d points, want %d", got, mcPoints-stored)
	}
	if !reflect.DeepEqual(rows, fresh) {
		t.Fatalf("resumed rows diverge from uninterrupted run:\n%+v\n%+v", rows, fresh)
	}
	var a, b bytes.Buffer
	RenderSweep(&a, fresh)
	RenderSweep(&b, rows)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("resumed table is not byte-identical to the uninterrupted one")
	}

	// A second full resume computes nothing at all.
	again := resumed
	again.Stats = &RunStats{}
	rows2, err := MemorySweep(again, grid, eng)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Stats.Computed(); got != 0 {
		t.Errorf("fully-stored resume recomputed %d points", got)
	}
	if !reflect.DeepEqual(rows2, fresh) {
		t.Fatal("fully-stored resume diverges from uninterrupted run")
	}
}

// Trial-style experiments (whole-row payloads) must also resume to
// byte-identical output.
func TestResumeTrialStyleRows(t *testing.T) {
	st := testStore(t)
	first := QuickOptions()
	first.Store = st
	first.Stats = &RunStats{}
	fresh, err := Fig11c(first)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Computed() != len(fresh) || first.Stats.Skipped() != 0 {
		t.Fatalf("first run stats wrong: %d computed, %d skipped", first.Stats.Computed(), first.Stats.Skipped())
	}
	second := first
	second.Resume = true
	second.Stats = &RunStats{}
	rows, err := Fig11c(second)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Computed() != 0 || second.Stats.Skipped() != len(fresh) {
		t.Fatalf("resume stats wrong: %d computed, %d skipped", second.Stats.Computed(), second.Stats.Skipped())
	}
	if !reflect.DeepEqual(rows, fresh) {
		t.Fatal("resumed fig11c rows diverge")
	}
	var a, b bytes.Buffer
	RenderFig11c(&a, fresh)
	RenderFig11c(&b, rows)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("resumed fig11c table not byte-identical")
	}
}

// gridRows keeps the completed rows on isolated point failures and returns
// none on cancellation or a fatal error.
func TestGridRows(t *testing.T) {
	rows := []SweepRow{{SweepPoint: SweepPoint{D: 5}}, {}, {SweepPoint: SweepPoint{D: 7}}}
	perrs := &mc.PointErrors{Total: 3, Failures: []mc.PointFailure{{Index: 1, Err: errors.New("boom"), Attempts: 1}}}
	if got, err := gridRows(rows, nil); err != nil || len(got) != 3 {
		t.Errorf("clean grid: %d rows, %v", len(got), err)
	}
	got, err := gridRows(rows, perrs)
	if err != perrs || len(got) != 2 || got[0].D != 5 || got[1].D != 7 {
		t.Errorf("isolated failure: rows %+v, err %v", got, err)
	}
	for name, err := range map[string]error{
		"canceled":          mc.ErrCanceled,
		"canceled+isolated": errors.Join(mc.ErrCanceled, perrs),
		"fatal":             errors.New("disk full"),
	} {
		if got, gerr := gridRows(rows, err); got != nil || gerr != err {
			t.Errorf("%s: rows %+v, err %v", name, got, gerr)
		}
	}
}
