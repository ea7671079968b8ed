package traj

import (
	"math"
	"reflect"
	"testing"

	"surfdeformer/internal/defect"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
)

// TestTrajectoryIncrementalMatchesFull pins whole-trajectory Result
// equality between the incremental path (site-rate DEMs patched from the
// chunk's nominal DEM, decode graphs re-derived from the nominal merge
// skeleton, the per-trajectory model table) and the cold reference (every
// DEM through BuildDEM, every graph through NewGraph, every decoder,
// sampler and stats object fresh), across every arm and several seeds, for
// a single patch and for a 2-patch layout. The reuse layers must be
// invisible: not one field of one Result may move, and every chunk must
// decode to the same correction.
func TestTrajectoryIncrementalMatchesFull(t *testing.T) {
	shapes := []struct {
		name  string
		cfg   func() Config
		seeds int64
	}{{"single", QuickConfig, 3}, {"layout", quickLayoutConfig, 1}}
	run := func(cold bool) map[string][]*Result {
		t.Helper()
		defer setColdPath(cold)()
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
	var full, fast map[string][]*Result
	fullCorr := logCorrections(func() { full = run(true) })
	p0 := patches.Value()
	fastCorr := logCorrections(func() { fast = run(false) })
	if patches.Value() == p0 {
		t.Fatal("incremental leg never patched a DEM; the fast path is unexercised")
	}
	if !reflect.DeepEqual(fastCorr, fullCorr) {
		t.Error("some chunk decoded to another correction on the incremental path than on the cold path")
	}
	for key, want := range full {
		got := fast[key]
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s seed %d: incremental trajectory diverged from the cold path:\ncold %+v\nfast %+v",
					key, i+1, want[i], got[i])
			}
		}
	}

	// Drift-heavy timelines exercise the reweight overlays hardest; pin
	// that arm too.
	driftRun := func(cold bool) []*Result {
		t.Helper()
		defer setColdPath(cold)()
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
	var want, got []*Result
	wantCorr := logCorrections(func() { want = driftRun(true) })
	gotCorr := logCorrections(func() { got = driftRun(false) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drift-only reweight arm diverged between incremental and cold path:\ncold %+v\nfast %+v", want, got)
	}
	if !reflect.DeepEqual(gotCorr, wantCorr) {
		t.Error("drift-only reweight arm decoded some chunk to another correction than the cold path")
	}
}

// logCorrections runs f and returns every chunk correction it decoded.
func logCorrections(f func()) [][]int32 {
	var log [][]int32
	correctionLog = &log
	defer func() { correctionLog = nil }()
	f()
	return log
}

// setColdPath switches the cold path and returns the restore.
func setColdPath(on bool) func() {
	old := coldPath
	coldPath = on
	return func() { coldPath = old }
}

// setHotCacheLimit bounds each trajectory's private DEMs at n and returns
// the restore.
func setHotCacheLimit(n int) func() {
	old := hotCacheLimit
	hotCacheLimit = n
	return func() { hotCacheLimit = old }
}

// FuzzTrajectoryColdPath runs one short d=3 trajectory warm, cold and warm
// again. The warm runs share a DEM cache, so the second one is served from
// everything the first left behind; the cold run builds every DEM, graph,
// decoder, sampler and stats object from scratch. All three Results must
// be equal field by field and by digest, and all three runs must decode
// every chunk to the same correction (correctionLog). arm picks one of the
// five arms,
// patches one or two patches (two run the simon surgery schedule),
// deviceRate a fabrication-defect device (folded into [0, 0.2)),
// halflife the estimator's weighting (folded into [0, 64)) and bound the
// model table's bound for all three runs (0 keeps hotCacheLimit, b > 0
// squeezes it to 2 + b%15, so the table resets mid-trajectory, at times
// between a chunk's nominal lookup and its variants).
func FuzzTrajectoryColdPath(f *testing.F) {
	f.Add(int64(6), uint8(0), uint8(1), 0.0, 0.0, uint8(0))  // removal, recovery and reweights
	f.Add(int64(3), uint8(0), uint8(2), 0.08, 0.0, uint8(0)) // layout on a defective device
	f.Add(int64(9), uint8(0), uint8(2), 0.0, 8.0, uint8(0))
	f.Add(int64(3), uint8(1), uint8(2), 0.0, 0.0, uint8(0))
	f.Add(int64(8), uint8(2), uint8(1), 0.0, 0.0, uint8(0)) // reweight tier alone
	f.Add(int64(1), uint8(2), uint8(1), 0.08, 30.0, uint8(0))
	f.Add(int64(4), uint8(3), uint8(1), 0.1, 0.0, uint8(0))
	f.Add(int64(1), uint8(4), uint8(1), 0.0, 0.0, uint8(0))  // bandages and their release
	f.Add(int64(6), uint8(0), uint8(1), 0.0, 0.0, uint8(15)) // table bound 2
	f.Add(int64(3), uint8(0), uint8(2), 0.08, 0.0, uint8(2)) // table bound 4
	f.Fuzz(func(t *testing.T, seed int64, arm, patches uint8, deviceRate, halflife float64, bound uint8) {
		if bound > 0 {
			defer setHotCacheLimit(2 + int(bound)%15)()
		}
		mode := allModes()[int(arm)%len(allModes())]
		cfg := QuickConfig()
		cfg.D, cfg.Horizon = 3, 240
		cfg.Cosmic.RatePerQubit *= 4 // a strike or two on the short horizon
		cfg.Drift.RatePerQubit *= 4
		if patches%2 == 0 {
			cfg.Layout = &LayoutConfig{Patches: 2, Program: "simon"}
		}
		if r := math.Mod(math.Abs(deviceRate), 0.2); r > 0 { // NaN and ±Inf fold to none
			cfg.Device = defect.NewDeviceModel(r)
		}
		if h := math.Mod(math.Abs(halflife), 64); h > 0 {
			cfg.Halflife = h
		}
		type leg struct {
			name        string
			res         *Result
			corrections [][]int32
		}
		run := func(name string, cache *sim.DEMCache) leg {
			t.Helper()
			l := leg{name: name}
			cfg.Cache = cache
			var err error
			if l.corrections = logCorrections(func() { l.res, err = Run(cfg, mode, seed) }); err != nil {
				t.Fatal(err)
			}
			return l
		}
		warmCache := sim.NewDEMCache(0)
		warm := run("warm", warmCache)
		restore := setColdPath(true)
		cold := run("cold", sim.NewDEMCache(0))
		restore()
		for _, l := range []leg{cold, run("second warm", warmCache)} {
			if !reflect.DeepEqual(l.res, warm.res) {
				t.Errorf("%v seed %d: %s run diverged from the warm run:\nwarm %+v\n%s %+v",
					mode, seed, l.name, warm.res, l.name, l.res)
			} else if a, b := resultDigest(t, warm.res), resultDigest(t, l.res); a != b {
				t.Errorf("%v seed %d: %s digest %s, warm %s", mode, seed, l.name, b, a)
			}
			if !reflect.DeepEqual(l.corrections, warm.corrections) {
				t.Errorf("%v seed %d: %s run decoded some chunk to another correction than the warm run",
					mode, seed, l.name)
			}
		}
	})
}
