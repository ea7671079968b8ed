package traj

import (
	"reflect"
	"testing"

	"surfdeformer/internal/defect"
)

// deviceOnlyConfig is the fabrication-defect scenario: no dynamic defect
// species at all — the only thing wrong with the trajectory is the device
// it boots on, so arm differences isolate the boot-adaptation policy.
func deviceOnlyConfig(rate float64) Config {
	cfg := QuickConfig()
	cfg.Cosmic = nil
	cfg.Leakage = nil
	cfg.Drift = nil
	cfg.Device = defect.NewDeviceModel(rate)
	return cfg
}

// TestSuperOnlyBeatsUntreatedOnDefectiveDevice is the paired-arm
// acceptance pin of the bandage tier: on fabrication-defective devices the
// super-only arm (which bandages the defective data qubits at boot) must
// strictly beat the untreated arm (which decodes around coin-flip qubits
// forever) on summed failures over paired seeds.
func TestSuperOnlyBeatsUntreatedOnDefectiveDevice(t *testing.T) {
	cfg := deviceOnlyConfig(0.15)
	superFail, untreatedFail := 0, 0
	for seed := int64(1); seed <= 5; seed++ {
		su, err := Run(cfg, ModeSuperOnly, seed)
		if err != nil {
			t.Fatalf("super-only seed %d: %v", seed, err)
		}
		un, err := Run(cfg, ModeUntreated, seed)
		if err != nil {
			t.Fatalf("untreated seed %d: %v", seed, err)
		}
		if su.DeviceDefects != un.DeviceDefects {
			t.Fatalf("seed %d: arms saw different devices (%d vs %d defects) — pairing broken",
				seed, su.DeviceDefects, un.DeviceDefects)
		}
		if su.DeviceDefects > 0 && su.Bandages == 0 {
			t.Errorf("seed %d: defective device but no boot bandages", seed)
		}
		if un.Bandages != 0 {
			t.Errorf("seed %d: untreated arm reported %d bandages", seed, un.Bandages)
		}
		superFail += su.Failures
		untreatedFail += un.Failures
	}
	if superFail >= untreatedFail {
		t.Errorf("super-only arm not beating untreated on defective devices: %d vs %d failures",
			superFail, untreatedFail)
	}
}

// TestDeviceTrajectoryDeterministic pins the device axis of the
// determinism contract: a device-sampled trajectory is a pure function of
// (Config, Mode, seed), and the device stream is independent of the event
// and shot streams (it derives from its own salt).
func TestDeviceTrajectoryDeterministic(t *testing.T) {
	cfg := deviceOnlyConfig(0.12)
	for _, mode := range []Mode{ModeSuperOnly, ModeSurfDeformer, ModeUntreated} {
		a, err := Run(cfg, mode, 7)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		b, err := Run(cfg, mode, 7)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: same seed, different results:\n%+v\n%+v", mode, a, b)
		}
	}
	// Different seeds sample different devices (the Monte-Carlo axis).
	a, _ := Run(cfg, ModeUntreated, 7)
	varies := false
	for seed := int64(8); seed <= 12; seed++ {
		b, err := Run(cfg, ModeUntreated, seed)
		if err != nil {
			t.Fatal(err)
		}
		if b.DeviceDefects != a.DeviceDefects {
			varies = true
			break
		}
	}
	if !varies {
		t.Error("device defect counts identical across 6 seeds at 12% rates — device stream suspect")
	}
}

// TestThreeTierMatchesTwoTierOnExistingScenarios pins the ladder-extension
// compatibility contract: on the pre-existing dynamic-defect scenarios
// (no fabrication device), the full three-tier ladder behaves exactly as
// the old two-tier one — the super tier never acts (removal outranks it in
// the dynamic routing, and no existing defect species produces a rate in
// the super band), and results are insensitive to moving the super
// boundary within that band.
func TestThreeTierMatchesTwoTierOnExistingScenarios(t *testing.T) {
	t.Parallel()
	for _, cfg := range []Config{QuickConfig(), DriftOnlyConfig()} {
		for _, mode := range []Mode{ModeSurfDeformer, ModeASC, ModeReweightOnly, ModeUntreated} {
			base, err := Run(cfg, mode, 3)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if base.Bandages != 0 || base.DeviceDefects != 0 {
				t.Errorf("%v: super tier acted on a dynamic-only scenario (%d bandages, %d device defects)",
					mode, base.Bandages, base.DeviceDefects)
			}
			moved := cfg
			moved.SuperThreshold = 0.09
			shifted, err := Run(moved, mode, 3)
			if err != nil {
				t.Fatalf("%v moved threshold: %v", mode, err)
			}
			if !reflect.DeepEqual(base, shifted) {
				t.Errorf("%v: moving the super boundary inside the empty band changed results:\n%+v\n%+v",
					mode, base, shifted)
			}
		}
	}
}

// TestConfigRejectsBadDeviceAndThresholds pins the config validation of
// the new axes: misordered ladders, out-of-range device rates and negative
// half-lives fail fast instead of silently running a different experiment.
func TestConfigRejectsBadDeviceAndThresholds(t *testing.T) {
	good := deviceOnlyConfig(0.1)
	if _, err := Run(good, ModeUntreated, 1); err != nil {
		t.Fatalf("valid device config rejected: %v", err)
	}
	bad := good
	bad.SuperThreshold = 0.5 // above the removal threshold
	if _, err := Run(bad, ModeSurfDeformer, 1); err == nil {
		t.Error("misordered ladder accepted")
	}
	bad = good
	bad.Device = &defect.DeviceModel{QubitDefectRate: 1.5}
	if _, err := Run(bad, ModeUntreated, 1); err == nil {
		t.Error("device qubit defect rate above 1 accepted")
	}
	bad.Device = defect.NewDeviceModel(-0.1)
	if _, err := Run(bad, ModeUntreated, 1); err == nil {
		t.Error("negative device defect rate accepted")
	}
	bad = good
	bad.Halflife = -1
	if _, err := Run(bad, ModeUntreated, 1); err == nil {
		t.Error("negative half-life accepted")
	}
}

// TestSuperOnlyReleasesDynamicBandages exercises the dynamic bandage
// path end to end: with removable dynamic events on a pristine device, the
// super-only arm bandages detected regions in place (never shrinking the
// patch) and releases them when events subside.
func TestSuperOnlyReleasesDynamicBandages(t *testing.T) {
	cfg := QuickConfig()
	sawBandage, sawRecovery := false, false
	for seed := int64(1); seed <= 8 && !(sawBandage && sawRecovery); seed++ {
		res, err := Run(cfg, ModeSuperOnly, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Deformations != 0 {
			t.Errorf("seed %d: super-only arm removed (%d deformations)", seed, res.Deformations)
		}
		if res.Bandages > 0 {
			sawBandage = true
		}
		if res.Recoveries > 0 {
			sawRecovery = true
		}
	}
	if !sawBandage {
		t.Error("no dynamic bandages over 8 seeds of the quick scenario")
	}
	if !sawRecovery {
		t.Error("no bandage releases over 8 seeds of the quick scenario")
	}
}
