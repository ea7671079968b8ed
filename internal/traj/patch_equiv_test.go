package traj

import (
	"reflect"
	"testing"

	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
)

// TestTrajectoryIncrementalMatchesFull pins whole-trajectory Result
// equality between the incremental path (site-rate DEMs patched from the
// chunk's nominal DEM, decode graphs re-derived from the nominal merge
// skeleton) and the full-rebuild reference (every DEM through buildDEM,
// every graph through NewGraph), across every arm and several seeds, for a
// single patch and for a 2-patch layout. The patch path must be invisible:
// not one field of one Result may move.
func TestTrajectoryIncrementalMatchesFull(t *testing.T) {
	shapes := []struct {
		name  string
		cfg   func() Config
		seeds int64
	}{{"single", QuickConfig, 3}, {"layout", quickLayoutConfig, 1}}
	run := func(patched bool) map[string][]*Result {
		t.Helper()
		old := patchDEMs
		patchDEMs = patched
		defer func() { patchDEMs = old }()
		out := map[string][]*Result{}
		for _, shape := range shapes {
			for _, mode := range allModes() {
				cfg := shape.cfg()
				cfg.Cache = sim.NewDEMCache(0)
				key := shape.name + "/" + mode.String()
				for seed := int64(1); seed <= shape.seeds; seed++ {
					res, err := Run(cfg, mode, seed)
					if err != nil {
						t.Fatal(err)
					}
					out[key] = append(out[key], res)
				}
			}
		}
		return out
	}
	patches := obs.Default().Counter("sim.dem.patches")
	full := run(false)
	p0 := patches.Value()
	fast := run(true)
	if patches.Value() == p0 {
		t.Fatal("incremental leg never patched a DEM; the fast path is unexercised")
	}
	for key, want := range full {
		got := fast[key]
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s seed %d: incremental trajectory diverged from full rebuild:\nfull %+v\nfast %+v",
					key, i+1, want[i], got[i])
			}
		}
	}

	// Drift-heavy timelines exercise the reweight overlays hardest; pin
	// that arm too.
	driftRun := func(patched bool) []*Result {
		t.Helper()
		old := patchDEMs
		patchDEMs = patched
		defer func() { patchDEMs = old }()
		var out []*Result
		cfg := DriftOnlyConfig()
		cfg.Cache = sim.NewDEMCache(0)
		for seed := int64(1); seed <= 2; seed++ {
			res, err := Run(cfg, ModeReweightOnly, seed)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	if want, got := driftRun(false), driftRun(true); !reflect.DeepEqual(got, want) {
		t.Errorf("drift-only reweight arm diverged between incremental and full rebuild:\nfull %+v\nfast %+v", want, got)
	}
}
