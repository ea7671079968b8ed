package traj

import (
	"surfdeformer/internal/code"
	"surfdeformer/internal/decoder"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/sim"
)

// hotCacheLimit bounds the DEMs one trajectory's model table builds: a
// build that finds the table holding this many resets it wholesale first.
// Result.OverlayDEMBuilds counts the decode-variant builds, so the bound
// and its rule are part of the stored results; CLI-scale trajectories
// reach it. A variable only so tests can squeeze it.
var hotCacheLimit = 256

// modelTable is a trajectory's one owner of decode and sample models: per
// sim.DEMKey, a DEM with the runtime objects derived from it — decoding
// graph, sampler and observable stats — each made on first use. Content
// keying lets an entry outlive a clear of the shared cache: the reweight
// tier's quantized overlays revisit a small set of models, and an entry
// keeps serving its objects however many DEM pointers the shared cache
// hands out for its key.
//
// The pristine code's nominal DEMs recur across every trajectory of a
// fan-out, so they come from the shared cache and enter the table as
// shared entries, with their graphs from decoder.SharedGraph. Everything
// else encodes this trajectory's seed-specific defects, would only churn
// the shared cache's working set, and is the table's own: deformed-code
// nominals, and the sample and decode variants patched from a chunk's
// nominal. Their graphs are folded from the nominal's skeleton
// (decoder.GraphFrom) and die with the table; only a shared entry's graph
// lives on its DEM (decoder.SharedGraph). Only
// the table's own entries count toward hotCacheLimit, and a lookup of a
// key held only as a shared entry (a code recovered to the pristine shape)
// is a miss; it adopts the shared entry's objects instead of building
// them again.
type modelTable struct {
	entries map[sim.DEMKey]*tableEntry
	built   int // entries the table built itself
	patcher sim.Patcher
}

// tableEntry is one model of the table. shared marks a DEM the shared
// cache served.
type tableEntry struct {
	dem     *sim.DEM
	shared  bool
	graph   *decoder.Graph
	sampler *sim.Sampler
	stats   *obsStats
}

func newModelTable() *modelTable {
	return &modelTable{entries: map[sim.DEMKey]*tableEntry{}}
}

// shared returns the entry under key, adding dem, which the shared cache
// served for key, as a shared entry on first sight.
func (t *modelTable) shared(key sim.DEMKey, dem *sim.DEM) *tableEntry {
	e := t.entries[key]
	if e == nil {
		e = &tableEntry{dem: dem, shared: true}
		t.entries[key] = e
	}
	return e
}

// own returns the table's own entry for the model, building its DEM on a
// miss through Patcher.Variant from base (nil for a nominal); built
// reports the miss. A miss on a key held as a shared entry adopts that
// entry's DEM, graph, sampler and stats, which are value-identical to what
// a build would make, and still counts as built.
func (t *modelTable) own(base *sim.DEM, c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) (e *tableEntry, built bool, err error) {
	key := sim.DEMKeyOf(c, model, rounds, basis)
	if e = t.entries[key]; e != nil && !e.shared {
		return e, false, nil
	}
	if e != nil {
		e = &tableEntry{dem: e.dem, graph: e.graph, sampler: e.sampler, stats: e.stats}
	} else {
		dem, err := t.patcher.Variant(base, c, owned(model), rounds, basis)
		if err != nil {
			return nil, false, err
		}
		e = &tableEntry{dem: dem}
	}
	if t.built >= hotCacheLimit {
		t.entries, t.built = map[sim.DEMKey]*tableEntry{}, 0
	}
	t.entries[key] = e
	t.built++
	return e, true, nil
}

// owned returns m as a DEM may keep it (its patch plan's base model): a
// copy that owns its site vector. Chunks compose their models over
// per-trajectory scratch, so every DEM the table builds gets one.
func owned(m *noise.Model) *noise.Model { return m.OverlaySiteRates(nil) }

// graphOf returns the entry's decoding graph: a shared entry's from its
// DEM (decoder.SharedGraph), the graph of nom — the chunk's nominal entry — in
// full, and any other entry's folded from the skeleton of nom's.
func (e *tableEntry) graphOf(nom *tableEntry) *decoder.Graph {
	switch {
	case e.graph != nil:
	case e.shared:
		e.graph = decoder.SharedGraph(e.dem)
	case e == nom:
		e.graph = decoder.NewGraph(e.dem)
	default:
		e.graph = decoder.GraphFrom(e.dem, nom.dem, nom.graphOf(nom))
	}
	return e.graph
}

func (e *tableEntry) samplerOf() *sim.Sampler {
	if e.sampler == nil {
		e.sampler = sim.NewSampler(e.dem)
	}
	return e.sampler
}

func (e *tableEntry) statsOf() *obsStats {
	if e.stats == nil {
		e.stats = newObsStats(e.dem)
	}
	return e.stats
}
