package traj

import (
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/sim"
)

func buildCode(t *testing.T, d int) *code.Code {
	t.Helper()
	c, err := deform.NewSquareSpec(lattice.Coord{}, d).Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReweightBeatsUntreatedOnDrift is the paired-arm acceptance test of
// the reweight tier: on a drift-only timeline — where deformation has
// nothing to remove and the entire defect burden is decoder-prior
// mismatch — ModeReweightOnly must fail strictly less often than
// ModeUntreated over the same pinned seeds. Both arms sample identical
// shots from identical true-rate DEMs; the only difference is the decode
// model, so the gap isolates exactly the estimated-prior win.
func TestReweightBeatsUntreatedOnDrift(t *testing.T) {
	cfg := DriftOnlyConfig()
	cfg.Cache = sim.NewDEMCache(0)
	var rwFails, utFails, rwCycles int64
	for seed := int64(1); seed <= 6; seed++ {
		rw, err := Run(cfg, ModeReweightOnly, seed)
		if err != nil {
			t.Fatal(err)
		}
		ut, err := Run(cfg, ModeUntreated, seed)
		if err != nil {
			t.Fatal(err)
		}
		if rw.Events != ut.Events {
			t.Fatalf("seed %d: arms saw different timelines (%d vs %d events); the comparison is not paired",
				seed, rw.Events, ut.Events)
		}
		rwFails += int64(rw.Failures)
		utFails += int64(ut.Failures)
		rwCycles += rw.ReweightedCycles
	}
	if rwCycles == 0 {
		t.Fatal("reweight arm never engaged its estimated priors on a drift-heavy timeline")
	}
	if rwFails >= utFails {
		t.Errorf("reweight-only failures %d not strictly below untreated %d over the pinned seeds", rwFails, utFails)
	}
}

// TestModeMitigationLadders pins the per-arm §VIII ladders the runtime
// routes on.
func TestModeMitigationLadders(t *testing.T) {
	cases := []struct {
		mode               Mode
		reweight, deformOK bool
	}{
		{ModeSurfDeformer, true, true},
		{ModeASC, false, true},
		{ModeReweightOnly, true, false},
		{ModeUntreated, false, false},
	}
	for _, c := range cases {
		m := c.mode.Mitigation()
		if m.Handles(defect.SeverityReweight) != c.reweight || m.Handles(defect.SeverityRemove) != c.deformOK {
			t.Errorf("%v ladder = %+v, want reweight=%v deform=%v", c.mode, m, c.reweight, c.deformOK)
		}
		if m.Route(0.5) != defect.SeverityRemove || m.Route(0.01) != defect.SeverityReweight {
			t.Errorf("%v ladder misroutes severities", c.mode)
		}
	}
}

// TestQuantizeMultiplier pins the power-of-two estimate ladder that keeps
// the set of distinct reweighted decode models (and so DEM builds) small.
func TestQuantizeMultiplier(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{1, 2}, {1.9, 2}, {2, 2}, {3, 4}, {5, 4}, {6, 8}, {10, 8}, {12, 16}, {100, 128},
	}
	for _, c := range cases {
		if got := quantizeMultiplier(c.in); got != c.want {
			t.Errorf("quantizeMultiplier(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}
