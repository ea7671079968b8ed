package traj

import (
	"math/rand"
	"testing"

	"surfdeformer/internal/detect"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/sim"
)

// steadyChunkAllocs is the pinned allocation count of a steady-state chunk
// of the reweight tier, as TestSteadyChunkAllocs measures it: the DEM keys
// of the sample and decode models (both carry site rates, which a key
// holds as a string) and the estimator's result.
const steadyChunkAllocs = 3

// TestSteadyChunkAllocs pins the allocations of one steady-state chunk of
// the reweight-only arm: a drift event elevates a data qubit, the two
// checks covering it fire every round, and so every model the chunk looks
// up is a model-table hit and its overlay equals the previous chunk's. The
// chunk samples and decodes (sampleChunk), feeds its rounds to the window
// and asks for fresh flags after each, and trims the window.
func TestSteadyChunkAllocs(t *testing.T) {
	cfg := DriftOnlyConfig()
	cfg.Cache = sim.NewDEMCache(0)
	c := buildCode(t, cfg.D)
	e := &engine{
		cfg: cfg, arm: ModeReweightOnly.String(), mit: ModeReweightOnly.Mitigation(),
		reweightFactor: DefaultReweightFactor, nominal: noise.Uniform(cfg.PhysicalRate),
		cache: cfg.Cache, table: newModelTable(), res: &Result{},
	}
	q := c.DataQubits()[len(c.DataQubits())/2]
	ps := &patchState{
		curCode: c, pristine: c,
		events:     []*event{{start: 0, end: 1 << 40, sites: []lattice.Coord{q}, rates: []float64{0.06}, detectedAt: -1}},
		window:     detect.NewWindow(cfg.Window, cfg.Threshold),
		attributed: map[int32]*attribution{},
		shotRNG:    rand.New(rand.NewSource(1)),
	}
	e.patches = []*patchState{ps}

	// The checks covering q fire every round; the flag path has already
	// attributed them, as it does on the first flag of an observing arm.
	dem, err := sim.BuildDEM(c, e.nominal, cfg.ChunkRounds, cfg.Basis)
	if err != nil {
		t.Fatal(err)
	}
	var hot []int32
	for _, info := range dem.Observables {
		for _, s := range info.Support {
			if s == q {
				hot = append(hot, stableID(info))
				ps.attributed[stableID(info)] = &attribution{}
			}
		}
	}
	if len(hot) < 2 {
		t.Fatalf("only %d checks cover %v", len(hot), q)
	}
	chunk := int64(cfg.ChunkRounds)
	cycle := int64(0)
	for ; cycle < int64(cfg.Window); cycle++ {
		ps.window.Feed(int(cycle), hot)
	}
	runChunk := func() {
		if err := e.sampleChunk(0, cycle, chunk); err != nil {
			t.Fatal(err)
		}
		for r := int64(0); r < chunk; r++ {
			ps.window.Feed(int(cycle+r), hot)
			if fresh := newFlags(ps.window, ps.attributed, &ps.flags); len(fresh) != 0 {
				t.Fatalf("fresh flags %v in a steady chunk", fresh)
			}
		}
		ps.window.Trim()
		cycle += chunk
	}
	runChunk()
	runChunk()
	built, reweights := e.table.built, e.res.Reweights
	if len(ps.rates) == 0 || len(ps.overlay) == 0 {
		t.Fatalf("rates %v, overlay %v: the chunk must look up both site-rate variants", ps.rates, ps.overlay)
	}
	allocs := testing.AllocsPerRun(100, runChunk)
	if e.table.built != built || e.res.Reweights != reweights {
		t.Fatalf("not a steady state: %d table builds, %d overlay changes during the runs",
			e.table.built-built, e.res.Reweights-reweights)
	}
	t.Logf("%.0f allocations per steady-state chunk", allocs)
	if allocs > steadyChunkAllocs {
		t.Errorf("%.0f allocations per steady-state chunk, pinned at %d", allocs, steadyChunkAllocs)
	}
}
