package traj

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"surfdeformer/internal/defect"
	"surfdeformer/internal/sim"
)

// TestRunDeterministic pins the engine's core contract: a trajectory's
// Result is a pure function of (Config, Mode, seed) — independent of cache
// instance and of whether the DEMs are built fresh or served from a warm
// cache.
func TestRunDeterministic(t *testing.T) {
	t.Parallel()
	cfg := QuickConfig()
	for _, mode := range []Mode{ModeSurfDeformer, ModeASC, ModeReweightOnly, ModeUntreated} {
		cfg.Cache = sim.NewDEMCache(0)
		cold, err := Run(cfg, mode, 42)
		if err != nil {
			t.Fatalf("%v cold: %v", mode, err)
		}
		warm, err := Run(cfg, mode, 42) // same cache, now warm
		if err != nil {
			t.Fatalf("%v warm: %v", mode, err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("%v: warm-cache result differs:\ncold %+v\nwarm %+v", mode, cold, warm)
		}
		cfg.Cache = sim.NewDEMCache(0)
		fresh, err := Run(cfg, mode, 42) // different cache instance
		if err != nil {
			t.Fatalf("%v fresh: %v", mode, err)
		}
		if !reflect.DeepEqual(cold, fresh) {
			t.Errorf("%v: cache-instance-dependent result:\nA %+v\nB %+v", mode, cold, fresh)
		}
	}
}

// TestRunSeedSensitivity verifies distinct seeds draw distinct timelines
// (the engine is not accidentally ignoring its seed).
func TestRunSeedSensitivity(t *testing.T) {
	cfg := QuickConfig()
	cfg.Cache = sim.NewDEMCache(0)
	seen := map[int]bool{}
	for seed := int64(1); seed <= 6; seed++ {
		r, err := Run(cfg, ModeUntreated, seed)
		if err != nil {
			t.Fatal(err)
		}
		seen[r.Events] = true
	}
	if len(seen) < 2 {
		t.Errorf("6 seeds produced a single event count %v; seed appears unused", seen)
	}
}

// TestRunInvariants checks the structural accounting of every arm over a
// few seeds.
func TestRunInvariants(t *testing.T) {
	t.Parallel()
	cfg := QuickConfig()
	cfg.Cache = sim.NewDEMCache(0)
	anyDeformed := false
	anyReweighted := false
	for _, mode := range []Mode{ModeSurfDeformer, ModeASC, ModeReweightOnly, ModeUntreated} {
		for seed := int64(1); seed <= 4; seed++ {
			r, err := Run(cfg, mode, seed)
			if err != nil {
				t.Fatalf("%v seed %d: %v", mode, seed, err)
			}
			if r.Mode != mode.String() {
				t.Errorf("result mode %q, want %q", r.Mode, mode)
			}
			if r.ElapsedCycles > cfg.Horizon || (!r.Severed && r.ElapsedCycles != cfg.Horizon) {
				t.Errorf("%v seed %d: elapsed %d of horizon %d (severed=%v)",
					mode, seed, r.ElapsedCycles, cfg.Horizon, r.Severed)
			}
			if r.ScoredCycles > r.ElapsedCycles {
				t.Errorf("%v seed %d: scored %d > elapsed %d", mode, seed, r.ScoredCycles, r.ElapsedCycles)
			}
			if r.Detected > r.RemoveEvents {
				t.Errorf("%v seed %d: detected %d > removable %d", mode, seed, r.Detected, r.RemoveEvents)
			}
			if r.Detected == 0 && r.LatencyCycles != 0 {
				t.Errorf("%v seed %d: latency %d with no detections", mode, seed, r.LatencyCycles)
			}
			if r.DistanceCycles > int64(cfg.D)*r.ElapsedCycles {
				t.Errorf("%v seed %d: distance-cycles %d exceeds d·elapsed", mode, seed, r.DistanceCycles)
			}
			if r.Failures > 0 && r.FirstFailCycle < 0 {
				t.Errorf("%v seed %d: %d failures but no first-fail cycle", mode, seed, r.Failures)
			}
			// Reweight accounting invariants, every arm.
			if r.ReweightedCycles+r.MismatchCycles > r.ElapsedCycles {
				t.Errorf("%v seed %d: reweighted %d + mismatch %d exceed elapsed %d",
					mode, seed, r.ReweightedCycles, r.MismatchCycles, r.ElapsedCycles)
			}
			if r.ReweightedCycles == 0 && r.RateErrCycles != 0 {
				t.Errorf("%v seed %d: rate error %g with no reweighted cycles", mode, seed, r.RateErrCycles)
			}
			if r.ReweightedCycles > 0 && r.Reweights == 0 {
				t.Errorf("%v seed %d: reweighted cycles without a prior update", mode, seed)
			}
			if !mode.Mitigation().ReweightTier && (r.Reweights != 0 || r.ReweightedCycles != 0) {
				t.Errorf("%v seed %d: arm without a reweight tier updated priors: %+v", mode, seed, r)
			}
			if mode == ModeUntreated || mode == ModeReweightOnly {
				if r.Deformations != 0 || r.Recoveries != 0 || r.Severed {
					t.Errorf("%v seed %d acted on the code: %+v", mode, seed, r)
				}
				if r.MinDistance != cfg.D {
					t.Errorf("%v seed %d: min distance %d, want %d", mode, seed, r.MinDistance, cfg.D)
				}
			} else if r.Deformations > 0 {
				anyDeformed = true
			}
			if mode == ModeReweightOnly && r.ReweightedCycles > 0 {
				anyReweighted = true
			}
		}
	}
	if !anyDeformed {
		t.Error("no treated trajectory deformed; the closed loop never closed")
	}
	if !anyReweighted {
		t.Error("no reweight-only trajectory updated its decode priors; the reweight tier never engaged")
	}
}

// TestResultJSONRoundTrip pins the exactness property the persistent store
// relies on: a Result marshals and unmarshals to an identical value.
func TestResultJSONRoundTrip(t *testing.T) {
	cfg := QuickConfig()
	cfg.Cache = sim.NewDEMCache(0)
	r, err := Run(cfg, ModeSurfDeformer, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*r, back) {
		t.Errorf("round trip changed the result:\nin  %+v\nout %+v", *r, back)
	}
}

// TestNoDefectProcesses runs the engine with every defect species disabled:
// the trajectory must coast through the horizon without ever deforming.
func TestNoDefectProcesses(t *testing.T) {
	cfg := QuickConfig()
	cfg.Cache = sim.NewDEMCache(0)
	cfg.Cosmic, cfg.Leakage, cfg.Drift = nil, nil, nil
	r, err := Run(cfg, ModeSurfDeformer, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Events != 0 || r.Deformations != 0 || r.Recoveries != 0 {
		t.Errorf("defect-free trajectory acted: %+v", r)
	}
	if r.MinDistance != cfg.D {
		t.Errorf("defect-free min distance %d, want %d", r.MinDistance, cfg.D)
	}
	if r.ElapsedCycles != cfg.Horizon {
		t.Errorf("elapsed %d, want full horizon %d", r.ElapsedCycles, cfg.Horizon)
	}
}

// TestConfigValidation pins the config guard rails.
func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.D = 2 },
		func(c *Config) { c.DeltaD = -1 },
		func(c *Config) { c.Horizon = 1 },
		func(c *Config) { c.ChunkRounds = 1 },
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.Threshold = 0 },
		func(c *Config) { c.Threshold = 1 },
		func(c *Config) { c.PhysicalRate = 0 },
		func(c *Config) { c.PhysicalRate = 0.5 },
		func(c *Config) { c.ReweightFactor = 1 },
		func(c *Config) { c.ReweightFactor = -2 },
		func(c *Config) { c.Layout = &LayoutConfig{Patches: 0} },
		func(c *Config) { c.Layout = &LayoutConfig{Patches: -3} },
		func(c *Config) { c.Layout = &LayoutConfig{Patches: 257} },
		func(c *Config) { c.Layout = &LayoutConfig{Patches: 1, Program: "simon"} },
		func(c *Config) { c.Layout = &LayoutConfig{Patches: 1, Ops: 2} },
		func(c *Config) { c.Layout = &LayoutConfig{Patches: 2, Ops: -1} },
		func(c *Config) { c.Layout = &LayoutConfig{Patches: 2, Program: "nope"} },
		// NaN compares false against every bound, so each float check must
		// be written to fail on it.
		func(c *Config) { c.Threshold = math.NaN() },
		func(c *Config) { c.PhysicalRate = math.NaN() },
		func(c *Config) { c.ReweightFactor = math.NaN() },
		func(c *Config) { c.Halflife = math.NaN() },
		func(c *Config) { c.SuperThreshold = math.NaN() },
		func(c *Config) { c.Device = defect.NewDeviceModel(math.NaN()) },
		func(c *Config) { c.Device = &defect.DeviceModel{CouplerDefectRate: math.NaN()} },
		func(c *Config) { c.Device = &defect.DeviceModel{ErrorRate: math.NaN()} },
	}
	for i, mutate := range bad {
		cfg := QuickConfig()
		mutate(&cfg)
		if _, err := Run(cfg, ModeSurfDeformer, 1); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
