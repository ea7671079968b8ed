package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"surfdeformer/internal/chaos"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/noise"
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

// runGrid returns every row of a clean grid, the other rows in point
// order plus one PointFailure when a point panics, and no rows on a fatal
// error or a cancellation — at any worker count.
func TestRunGrid(t *testing.T) {
	points := []int{10, 11, 12, 13}
	double := func(p int) (int, error) { return 2 * p, nil }
	failAt := func(at int, fail func() error) func(int) (int, error) {
		return func(p int) (int, error) {
			if p == at {
				return 0, fail()
			}
			return double(p)
		}
	}
	for _, workers := range []int{1, 3} {
		opt := Options{PointWorkers: workers}
		if rows, err := runGrid(opt, points, double); err != nil || !reflect.DeepEqual(rows, []int{20, 22, 24, 26}) {
			t.Errorf("workers %d, clean grid: rows %v, err %v", workers, rows, err)
		}

		rows, err := runGrid(opt, points, failAt(11, func() error { panic("boom") }))
		var perrs *mc.PointErrors
		if !errors.As(err, &perrs) || len(perrs.Failures) != 1 || perrs.Failures[0].Index != 1 {
			t.Errorf("workers %d, panicking point: err %v, want one PointFailure at index 1", workers, err)
		}
		if !reflect.DeepEqual(rows, []int{20, 24, 26}) {
			t.Errorf("workers %d, panicking point: rows %v, want the other rows in point order", workers, rows)
		}

		fatal := errors.New("disk full")
		if rows, err := runGrid(opt, points, failAt(12, func() error { return fatal })); rows != nil || err != fatal {
			t.Errorf("workers %d, fatal error: rows %v, err %v", workers, rows, err)
		}
		canceled := failAt(12, func() error { return fmt.Errorf("engine: %w", mc.ErrCanceled) })
		if rows, err := runGrid(opt, points, canceled); rows != nil || !errors.Is(err, mc.ErrCanceled) {
			t.Errorf("workers %d, canceled point: rows %v, err %v", workers, rows, err)
		}
		// A panic and a cancellation in one grid: the cancellation wins.
		both := func(p int) (int, error) {
			if p == 10 {
				panic("boom")
			}
			return canceled(p)
		}
		if rows, err := runGrid(opt, points, both); rows != nil || !errors.Is(err, mc.ErrCanceled) {
			t.Errorf("workers %d, panic + cancel: rows %v, err %v", workers, rows, err)
		}
	}
}

// A figure grid keeps its finished rows on an isolated point failure: on a
// store whose second append panics, the grid returns every other row, in
// grid order, plus the one failure.
func TestFigureGridKeepsFinishedRows(t *testing.T) {
	t.Run("Fig11c", func(t *testing.T) { checkPartialGrid(t, Fig11c) })
	t.Run("Table2", func(t *testing.T) { checkPartialGrid(t, Table2) })
}

func checkPartialGrid[R any](t *testing.T, run func(Options) ([]R, error)) {
	fresh, err := run(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenWith(filepath.Join(t.TempDir(), "faulted.jsonl"),
		store.Options{BeforeAppend: chaos.PanicOnAppend(2)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	opt := QuickOptions()
	opt.Store = st
	rows, err := run(opt)
	var perrs *mc.PointErrors
	if !errors.As(err, &perrs) || len(perrs.Failures) != 1 {
		t.Fatalf("err = %v, want one isolated point failure", err)
	}
	// One worker appends in grid order, so the second append is point 1's.
	want := append(fresh[:1:1], fresh[2:]...)
	if len(rows) != len(fresh)-1 || !reflect.DeepEqual(rows, want) {
		t.Fatalf("got %d rows, want the %d rows other than point 1, in grid order", len(rows), len(want))
	}
}

// Cancellation reaches the Monte-Carlo runs inside a figure point: on an
// already-canceled context a point with a large shot budget stops at the
// next shard boundary with mc.ErrCanceled instead of running to the end
// and committing a row.
func TestFigurePointHonorsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := QuickOptions()
	opt.Shots = 200_000
	opt.Ctx = ctx
	nominal := noise.Uniform(noise.DefaultPhysical)
	for name, point := range map[string]func() error{
		"fig11a": func() error { _, err := fig11aPoint(opt, 5, 1, 1); return err },
		"fig14a": func() error { _, err := fig14aPoint(opt, 5, 1e-3, 1); return err },
		"fig14b": func() error { _, err := removalRate(nil, nil, 5, nominal, opt, 1); return err },
	} {
		if err := point(); !errors.Is(err, mc.ErrCanceled) {
			t.Errorf("%s: err %v, want one wrapping mc.ErrCanceled", name, err)
		}
	}
}
