package traj

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
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

// TestMemoPrunedAfterCacheClear pins the memo bound on the content-keyed
// memo: the entries can never outgrow demMemoLimit no matter how many
// distinct configurations stream through (one dead entry per evicted DEM,
// forever, was the original leak), and — the content-keying win — an entry
// survives a cache clear: when the evicting cache mints a fresh *DEM
// pointer for a configuration already memoized, the memo serves the same
// decoding graph instead of rebuilding it.
func TestMemoPrunedAfterCacheClear(t *testing.T) {
	oldLimit := demMemoLimit
	demMemoLimit = 8
	defer func() { demMemoLimit = oldLimit }()
	hot := sim.NewDEMCache(2) // tiny: every few distinct models clear it
	memo := newDEMMemo()
	c := buildCode(t, 3)
	build := func(i int) (*sim.DEM, sim.DEMKey) {
		t.Helper()
		rate := 0.01 + float64(i)*0.01 // distinct hot models
		m := noise.Uniform(1e-3).WithSiteRates(map[lattice.Coord]float64{{Row: 1, Col: 1}: rate})
		dem, key, err := hot.BuildDEMKeyed(c, m, 3, lattice.ZCheck)
		if err != nil {
			t.Fatal(err)
		}
		return dem, key
	}
	dem0, key0 := build(0)
	memo.graph(key0, dem0, nil)
	for i := 0; i < 40; i++ {
		dem, key := build(i)
		memo.graph(key, dem, nil)
		memo.sampler(key, dem)
		memo.obsStats(key, dem)
		if len(memo.entries) > demMemoLimit {
			t.Fatalf("iteration %d: memo grew past its bound (%d entries > %d)",
				i, len(memo.entries), demMemoLimit)
		}
	}
	if hot.Stats().Clears == 0 {
		t.Fatal("test never forced a cache clear; the bound was not exercised")
	}
	// Rebuild configuration 0: the 2-entry cache evicted it long ago, so
	// this mints a fresh pointer — and demMemoLimit=8 with 40 streamed
	// configurations reset the memo too, so re-memoize once, then check the
	// clear-survival path explicitly with a third, pointer-fresh build.
	demA, keyA := build(0)
	if keyA != key0 {
		t.Fatal("key changed for an identical configuration")
	}
	graphA := memo.graph(keyA, demA, nil)
	build(20) // distinct configs churn the 2-entry cache...
	build(21)
	demB, _ := build(0) // ...so this rebuilds config 0 under a fresh pointer
	if demB == demA {
		t.Fatal("cache churn did not mint a fresh pointer; the survival path is unexercised")
	}
	if memo.graph(key0, demB, nil) != graphA {
		t.Error("memo rebuilt the decoding graph for a configuration it already held (content key not reused)")
	}
}

// TestRunDeterministicUnderMemoEviction is the long-horizon integration
// pin: a trajectory whose hot cache is squeezed to 2 entries (forcing
// constant wholesale clears, memo prunes, and decoder/sampler rebuilds
// mid-run) must produce the bit-identical Result — eviction is a memory
// bound, never a behavior change.
func TestRunDeterministicUnderMemoEviction(t *testing.T) {
	cfg := QuickConfig()
	cfg.Cache = sim.NewDEMCache(0)
	want, err := Run(cfg, ModeSurfDeformer, 7)
	if err != nil {
		t.Fatal(err)
	}
	old := hotCacheLimit
	hotCacheLimit = 2
	defer func() { hotCacheLimit = old }()
	cfg.Cache = sim.NewDEMCache(0)
	got, err := Run(cfg, ModeSurfDeformer, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("memo eviction changed the trajectory:\nfull %+v\ntiny %+v", want, got)
	}
}

// TestRunDeterministicUnderInternResets pins that a trajectory's Result
// does not depend on the process-wide code intern table. A code rebuilt
// mid-trajectory (a recovery back to an earlier shape) must key the
// private hot cache like the code it repeats even when the table resets
// in between; otherwise the rebuild draws a fresh ID, its overlay lookups
// miss, and OverlayDEMBuilds counts them. The trajectories run once quietly
// and once racing a goroutine that interns fresh codes, resetting the
// table every few hundred.
func TestRunDeterministicUnderInternResets(t *testing.T) {
	cfg := QuickConfig()
	cfg.D, cfg.Horizon = 3, 1200
	run := func() []*Result {
		t.Helper()
		var out []*Result
		for seed := int64(1); seed <= 12; seed++ {
			cfg.Cache = sim.NewDEMCache(0)
			res, err := Run(cfg, ModeSurfDeformer, seed)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	want := run()
	clears := obs.Default().Counter("code.intern.clears")
	c0 := clears.Value()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			code.New([]lattice.Coord{{Row: -1 - i, Col: 0}}, nil).ID()
		}
	}()
	got := run()
	stop.Store(true)
	wg.Wait()
	if clears.Value() == c0 {
		t.Fatal("the intern table never reset during the second run")
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("seed %d: Result moved under intern resets:\nquiet %+v\nreset %+v", i+1, want[i], got[i])
		}
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
