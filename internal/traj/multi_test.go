package traj

import (
	"encoding/json"
	"reflect"
	"testing"

	"surfdeformer/internal/sim"
)

// quickLayoutConfig is the test-scale layout scenario: two patches with a
// short surgery schedule on the QuickConfig defect processes.
func quickLayoutConfig() Config {
	cfg := QuickConfig()
	cfg.Layout = &LayoutConfig{Patches: 2, Program: "simon"}
	return cfg
}

// allModes lists every mitigation arm.
func allModes() []Mode {
	return []Mode{ModeSurfDeformer, ModeASC, ModeReweightOnly, ModeUntreated, ModeSuperOnly}
}

// TestLayoutDeterministic pins the layout engine's store contract: a pure
// function of (Config, Mode, seed), independent of cache instance or
// warmth.
func TestLayoutDeterministic(t *testing.T) {
	t.Parallel()
	cfg := quickLayoutConfig()
	for _, mode := range allModes() {
		cfg.Cache = sim.NewDEMCache(0)
		cold, err := Run(cfg, mode, 7)
		if err != nil {
			t.Fatalf("%v cold: %v", mode, err)
		}
		warm, err := Run(cfg, mode, 7)
		if err != nil {
			t.Fatalf("%v warm: %v", mode, err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("%v: warm-cache layout result differs:\ncold %+v\nwarm %+v", mode, cold, warm)
		}
		cfg.Cache = sim.NewDEMCache(0)
		fresh, err := Run(cfg, mode, 7)
		if err != nil {
			t.Fatalf("%v fresh: %v", mode, err)
		}
		if !reflect.DeepEqual(cold, fresh) {
			t.Errorf("%v: cache-instance-dependent layout result:\nA %+v\nB %+v", mode, cold, fresh)
		}
	}
}

// TestLayoutInvariants checks the structural accounting of layout results
// across arms and seeds: per-patch slices sum to the aggregates, the
// surgery counters stay within the schedule, and a completed program has a
// completion cycle inside the horizon.
func TestLayoutInvariants(t *testing.T) {
	t.Parallel()
	cfg := quickLayoutConfig()
	cfg.Cache = sim.NewDEMCache(0)
	anyOps := false
	for _, mode := range allModes() {
		for seed := int64(1); seed <= 4; seed++ {
			r, err := Run(cfg, mode, seed)
			if err != nil {
				t.Fatalf("%v seed %d: %v", mode, seed, err)
			}
			if len(r.Patches) != cfg.Layout.Patches {
				t.Fatalf("%v seed %d: %d patch slices, want %d", mode, seed, len(r.Patches), cfg.Layout.Patches)
			}
			var failures, deforms, recovers, detected int
			var blocked int64
			for _, p := range r.Patches {
				failures += p.Failures
				deforms += p.Deformations
				recovers += p.Recoveries
				detected += p.Detected
				blocked += p.BlockedCycles
				if p.MinDistance > cfg.D {
					t.Errorf("%v seed %d: patch min distance %d above d=%d", mode, seed, p.MinDistance, cfg.D)
				}
			}
			if failures != r.Failures || deforms != r.Deformations ||
				recovers != r.Recoveries || detected != r.Detected || blocked != r.BlockedCycles {
				t.Errorf("%v seed %d: per-patch sums diverge from aggregates: %+v vs %+v",
					mode, seed, r.Patches, r)
			}
			if r.OpsTotal == 0 {
				t.Errorf("%v seed %d: surgery schedule empty under a program config", mode, seed)
			}
			anyOps = anyOps || r.OpsCompleted > 0
			if r.OpsCompleted > r.OpsTotal {
				t.Errorf("%v seed %d: completed %d of %d ops", mode, seed, r.OpsCompleted, r.OpsTotal)
			}
			if r.ProgramDone != (r.OpsCompleted == r.OpsTotal && r.OpsTotal > 0) && !r.Severed {
				t.Errorf("%v seed %d: program_done=%v with %d/%d ops", mode, seed, r.ProgramDone, r.OpsCompleted, r.OpsTotal)
			}
			if r.ProgramDone && (r.ProgramDoneCycle <= 0 || r.ProgramDoneCycle > cfg.Horizon) {
				t.Errorf("%v seed %d: completion cycle %d outside horizon", mode, seed, r.ProgramDoneCycle)
			}
			if r.ScoredCycles > r.ElapsedCycles*int64(cfg.Layout.Patches) {
				t.Errorf("%v seed %d: scored %d patch-cycles > %d elapsed × %d patches",
					mode, seed, r.ScoredCycles, r.ElapsedCycles, cfg.Layout.Patches)
			}
			if r.ChannelBlockedCycles > r.ElapsedCycles {
				t.Errorf("%v seed %d: channel-blocked %d > elapsed %d", mode, seed, r.ChannelBlockedCycles, r.ElapsedCycles)
			}
		}
	}
	if !anyOps {
		t.Error("no arm completed a single surgery op over 4 seeds; schedule appears dead")
	}
}

// TestLayoutResultJSONRoundTrip pins the store contract for layout results:
// marshal → unmarshal reproduces the value exactly, per-patch slices
// included.
func TestLayoutResultJSONRoundTrip(t *testing.T) {
	cfg := quickLayoutConfig()
	cfg.Cache = sim.NewDEMCache(0)
	r, err := Run(cfg, ModeSurfDeformer, 3)
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
		t.Errorf("layout result does not JSON round-trip:\nwant %+v\ngot  %+v", r, back)
	}
}

// TestChannelBlockingDegradesThroughput is the paired router test: the same
// surgery schedule runs against the defect timeline and against a
// defect-free router, and the defects must measurably degrade program
// throughput — stall cycles, merge-blocked operations, or channel-blocked
// cycles appear, and completion never gets *earlier* under defects.
func TestChannelBlockingDegradesThroughput(t *testing.T) {
	t.Parallel()
	defective := quickLayoutConfig()
	defective.Cache = sim.NewDEMCache(0)
	// Stretch the schedule across the horizon (40 sequential ops ≈ 200
	// cycles of attempts) and make the strikes long enough to overlap it,
	// so channel blockage actually lands on surgery attempts.
	defective.Layout.Ops = 40
	defective.Cosmic.DurationCycles = 300
	defective.Cosmic.RatePerQubit = 120

	clean := defective
	clean.Cache = sim.NewDEMCache(0)
	clean.Cosmic, clean.Leakage, clean.Drift = nil, nil, nil

	var stall, mergeBlocked, chanBlocked, chanEvents int64
	degraded := 0
	for seed := int64(1); seed <= 6; seed++ {
		rd, err := Run(defective, ModeSurfDeformer, seed)
		if err != nil {
			t.Fatalf("defective seed %d: %v", seed, err)
		}
		rc, err := Run(clean, ModeSurfDeformer, seed)
		if err != nil {
			t.Fatalf("clean seed %d: %v", seed, err)
		}
		if rc.StallCycles != 0 || rc.MergeBlockedOps != 0 || rc.ChannelBlockedCycles != 0 {
			t.Errorf("seed %d: defect-free router reports blockage: %+v", seed, rc)
		}
		if !rc.ProgramDone {
			t.Errorf("seed %d: defect-free router failed to complete the program", seed)
		}
		stall += rd.StallCycles
		mergeBlocked += int64(rd.MergeBlockedOps)
		chanBlocked += rd.ChannelBlockedCycles
		chanEvents += int64(rd.ChannelEvents)
		if !rd.ProgramDone || rd.ProgramDoneCycle > rc.ProgramDoneCycle {
			degraded++
		}
	}
	if chanEvents == 0 {
		t.Fatal("no channel events over 6 seeds; the scenario does not exercise the router")
	}
	if stall+mergeBlocked+chanBlocked == 0 {
		t.Errorf("channel defects never touched the router: stall=%d merge-blocked=%d chan-blocked=%d",
			stall, mergeBlocked, chanBlocked)
	}
	if degraded == 0 {
		t.Error("program completion never degraded under channel defects across 6 seeds")
	}
}

// TestLayoutMitigatedBeatsUntreated is the layout-scenario arm comparison:
// on the sustained-drift scenario over two patches, the reweight-tier arm
// must accumulate strictly fewer failures than untreated (the single-patch
// pinning of TestReweightBeatsUntreatedOnDrift, lifted to the layout).
func TestLayoutMitigatedBeatsUntreated(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed layout drift comparison")
	}
	t.Parallel()
	cfg := DriftOnlyConfig()
	cfg.Cache = sim.NewDEMCache(0)
	cfg.Layout = &LayoutConfig{Patches: 2, Program: "simon"}
	var treated, untreated int
	for seed := int64(1); seed <= 6; seed++ {
		rt, err := Run(cfg, ModeReweightOnly, seed)
		if err != nil {
			t.Fatalf("reweight-only seed %d: %v", seed, err)
		}
		ru, err := Run(cfg, ModeUntreated, seed)
		if err != nil {
			t.Fatalf("untreated seed %d: %v", seed, err)
		}
		treated += rt.Failures
		untreated += ru.Failures
	}
	if treated >= untreated {
		t.Errorf("reweight-only failures %d not below untreated %d on the layout drift scenario",
			treated, untreated)
	}
}
