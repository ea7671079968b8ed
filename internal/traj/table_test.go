package traj

import (
	"reflect"
	"slices"
	"testing"

	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
)

// TestVariantGraphsStayPrivate pins graph ownership: only a pristine
// nominal DEM, which comes from the shared DEM cache, puts its decoding
// graph in the process-wide graph cache. The graphs of deformed-code
// nominals and of every sample and decode variant belong to the
// trajectory that built them and die with it. Each set of three
// trajectories runs on a fresh shared cache, so it may add at most one
// graph-cache miss per shared-cache miss.
func TestVariantGraphsStayPrivate(t *testing.T) {
	misses := obs.Default().Counter("decoder.graph_cache.misses")
	for _, set := range []struct {
		name string
		cfg  func() Config
		mode Mode
	}{
		{"drift", DriftOnlyConfig, ModeReweightOnly},
		{"quick", QuickConfig, ModeSurfDeformer},
		{"layout-simon", quickLayoutConfig, ModeSurfDeformer},
	} {
		cfg := set.cfg()
		cfg.Cache = sim.NewDEMCache(0)
		m0 := misses.Value()
		for seed := int64(1); seed <= 3; seed++ {
			if _, err := Run(cfg, set.mode, seed); err != nil {
				t.Fatal(err)
			}
		}
		graphs, dems := misses.Value()-m0, int64(cfg.Cache.Stats().Misses)
		if graphs > dems {
			t.Errorf("%s/%v: %d graphs entered the process-wide cache for %d shared DEMs",
				set.name, set.mode, graphs, dems)
		}
	}
}

// TestTablePatchAccounting pins how the table fills its own entries: a
// variant of a shared nominal is patched, counting once in sim.dem.patches
// and never in sim.dem.builds, and only it counts toward the bound; a
// repeat lookup hits without patching again, and so does a lookup through
// a separately built twin of the code (a recovery back to an earlier shape
// rebuilds its code as a new object); and a private lookup of the shared
// nominal's own key still misses and counts as built, but adopts the
// shared entry's DEM without a build.
func TestTablePatchAccounting(t *testing.T) {
	c := buildCode(t, 3)
	nominal := noise.Uniform(1e-3)
	base, key, err := sim.NewDEMCache(0).BuildDEMKeyed(c, nominal, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	tab := newModelTable()
	nom := tab.shared(key, base)
	variant := nominal.WithSiteRates(siteRates(map[lattice.Coord]float64{c.DataQubits()[0]: 8e-3}))
	builds := obs.Default().Counter("sim.dem.builds")
	patches := obs.Default().Counter("sim.dem.patches")
	b0, p0 := builds.Value(), patches.Value()
	e, built, err := tab.own(nom.dem, c, variant, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if !built || builds.Value() != b0 || patches.Value() != p0+1 {
		t.Errorf("variant fill: built %v, counters moved by (builds %d, patches %d); want a patch (0, 1)",
			built, builds.Value()-b0, patches.Value()-p0)
	}
	if tab.built != 1 {
		t.Errorf("%d built entries, want 1 (the shared nominal does not count)", tab.built)
	}
	again, built, err := tab.own(nom.dem, c, variant, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if built || again != e || patches.Value() != p0+1 {
		t.Error("repeat lookup missed or patched again")
	}
	twin, built, err := tab.own(nom.dem, buildCode(t, 3), variant, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if built || twin != e || builds.Value() != b0 || patches.Value() != p0+1 || tab.built != 1 {
		t.Error("lookup through a separately built twin code missed its twin's entry")
	}
	own, built, err := tab.own(nil, c, nominal, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if !built || own == nom || own.dem != nom.dem || builds.Value() != b0 || tab.built != 2 {
		t.Errorf("private lookup of a shared key: built %v, adopted %v, %d full builds, %d built entries; want a miss, the shared DEM, 0, 2",
			built, own.dem == nom.dem, builds.Value()-b0, tab.built)
	}
}

// TestMemoPrunedAfterCacheClear pins the table's bound and its content
// keying: however many distinct variants stream through, the built entries
// never outgrow hotCacheLimit (one dead entry per evicted DEM, forever, was
// an early leak), and an entry outlives a clear of the shared cache: when
// the shared cache hands out a fresh *DEM for a nominal the table holds,
// the table keeps serving the entry's graph instead of rebuilding it.
func TestMemoPrunedAfterCacheClear(t *testing.T) {
	defer setHotCacheLimit(8)()
	shared := sim.NewDEMCache(2) // tiny: every few distinct lookups clear it
	tab := newModelTable()
	c := buildCode(t, 3)
	nominal := func(rounds int) (*sim.DEM, *tableEntry) {
		t.Helper()
		dem, key, err := shared.BuildDEMKeyed(c, noise.Uniform(1e-3), rounds, lattice.ZCheck)
		if err != nil {
			t.Fatal(err)
		}
		return dem, tab.shared(key, dem)
	}
	variant := func(i int) *noise.Model {
		return noise.Uniform(1e-3).WithSiteRates(siteRates(map[lattice.Coord]float64{{Row: 1, Col: 1}: 0.01 + float64(i)*0.01}))
	}
	_, nom := nominal(3)
	for i := 0; i < 40; i++ {
		e, _, err := tab.own(nom.dem, c, variant(i), 3, lattice.ZCheck)
		if err != nil {
			t.Fatal(err)
		}
		e.graphOf(nom)
		e.samplerOf()
		e.statsOf()
		own := 0
		for _, e := range tab.entries {
			if !e.shared {
				own++
			}
		}
		if own > hotCacheLimit {
			t.Fatalf("iteration %d: %d built entries, over the bound %d", i, own, hotCacheLimit)
		}
	}
	if _, built, err := tab.own(nom.dem, c, variant(0), 3, lattice.ZCheck); err != nil || !built {
		t.Fatal("variant 0 survived 40 distinct builds; the bound never reset the table")
	}

	demA, nomA := nominal(3)
	graph := nomA.graphOf(nomA)
	nominal(4) // distinct lookups churn the 2-entry shared cache...
	nominal(5)
	demB, nomB := nominal(3) // ...so this serves rounds 3 under a fresh pointer
	if demB == demA {
		t.Fatal("shared-cache churn did not mint a fresh pointer; the survival path is unexercised")
	}
	if nomB != nomA || nomB.graphOf(nomB) != graph {
		t.Error("the table rebuilt the decoding graph of a nominal it already held")
	}
}

// TestRunDeterministicUnderMemoEviction is the long-horizon integration
// pin of the bound: every golden run repeats with the table squeezed to 3
// built DEMs, which resets it again and again mid-trajectory. A reset
// forgets overlay models the trajectory may revisit, so OverlayDEMBuilds
// may rise and must never fall; every other field of the Result must stay
// put, since reset tables rebuild value-identical DEMs.
func TestRunDeterministicUnderMemoEviction(t *testing.T) {
	run := func(limit int) []*Result {
		t.Helper()
		defer setHotCacheLimit(limit)()
		var out []*Result
		for _, sc := range goldenScenarios() {
			cfg := sc.cfg()
			cfg.Cache = sim.NewDEMCache(0)
			for _, mode := range allModes() {
				for seed := int64(1); seed <= sc.seeds; seed++ {
					res, err := Run(cfg, mode, seed)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, res)
				}
			}
		}
		return out
	}
	want, got := run(hotCacheLimit), run(3)
	raised := 0
	for i := range want {
		if got[i].OverlayDEMBuilds < want[i].OverlayDEMBuilds {
			t.Errorf("run %d: OverlayDEMBuilds fell from %d to %d under a squeezed bound",
				i, want[i].OverlayDEMBuilds, got[i].OverlayDEMBuilds)
		}
		if got[i].OverlayDEMBuilds > want[i].OverlayDEMBuilds {
			raised++
		}
		g := *got[i]
		g.OverlayDEMBuilds = want[i].OverlayDEMBuilds
		if !reflect.DeepEqual(&g, want[i]) {
			t.Errorf("run %d: table resets changed the trajectory:\nfull %+v\ntiny %+v", i, want[i], got[i])
		}
	}
	if raised == 0 {
		t.Error("no run revisited an overlay model after a reset; the bound was not exercised")
	}
}

// TestTableModelsOwnTheirSiteRates pins that a DEM the model table builds
// keeps a model owning its site vector: chunks pass vectors in scratch
// they rewrite next chunk, and a DEM whose patch base aliased that scratch
// would, as a patch base itself, refold the wrong sites. Here the scratch
// moves the override to another site after the build; patching the
// variant back to the nominal must still give the nominal's DEM.
func TestTableModelsOwnTheirSiteRates(t *testing.T) {
	c := buildCode(t, 3)
	nominal := noise.Uniform(1e-3)
	tab := newModelTable()
	nom, _, err := tab.own(nil, c, nominal, 3, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	qs := c.DataQubits()
	scratch := []noise.SiteRate{{Q: qs[0], Rate: 8e-3}}
	e, built, err := tab.own(nom.dem, c, nominal.WithSiteRates(scratch), 3, lattice.ZCheck)
	if err != nil || !built {
		t.Fatalf("variant not built: %v", err)
	}
	scratch[0] = noise.SiteRate{Q: qs[len(qs)-1], Rate: 8e-3} // the next chunk's rates
	var pt sim.Patcher
	back, ok := pt.Patch(e.dem, nominal)
	if !ok {
		t.Fatal("patch refused")
	}
	if !reflect.DeepEqual(back.P, nom.dem.P) {
		t.Error("patching the variant back to the nominal missed the variant's own override site")
	}
}

// siteRates is the sorted site-rate vector (noise.Model.SiteRates) of a
// per-site rate map.
func siteRates(m map[lattice.Coord]float64) []noise.SiteRate {
	out := make([]noise.SiteRate, 0, len(m))
	for q, r := range m {
		out = append(out, noise.SiteRate{Q: q, Rate: r})
	}
	slices.SortFunc(out, func(a, b noise.SiteRate) int { return a.Q.Compare(b.Q) })
	return out
}
