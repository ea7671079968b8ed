package sim

import (
	"strconv"
	"sync"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
)

// Process-wide cache metrics, aggregated across every DEMCache instance
// (shared and per-trajectory hot caches alike); the per-instance ints in
// CacheStats stay authoritative for instance-local consumers like the
// trajectory engine's hot cache.
var (
	obsCacheHits   = obs.Default().Counter("sim.dem_cache.hits")
	obsCacheMisses = obs.Default().Counter("sim.dem_cache.misses")
	obsCacheClears = obs.Default().Counter("sim.dem_cache.clears")
)

// DEMCache memoizes BuildDEM results keyed by (code fingerprint, noise
// model fingerprint, rounds, basis). Sweep pipelines hit the same handful
// of configurations thousands of times — per-policy baselines, the nominal
// decode-side model of every mismatched run, repeated (d, p) grid points —
// and DEM construction dominates their setup cost. Keys are full
// serializations, not hashes, so distinct configurations can never
// collide. Identical configurations return the identical *DEM pointer,
// which downstream decoder-graph caches key on.
//
// The cache is safe for concurrent use. When it grows past its entry
// limit it is cleared wholesale: sweeps revisit a small working set, so a
// full reset costs one rebuild per live configuration and keeps the
// implementation free of LRU bookkeeping.
type DEMCache struct {
	mu      sync.Mutex
	entries map[string]*DEM
	limit   int
	hits    int
	misses  int
	clears  int
}

// NewDEMCache returns an empty cache bounded at the given number of
// entries (<= 0 selects a default of 256).
func NewDEMCache(limit int) *DEMCache {
	if limit <= 0 {
		limit = 256
	}
	return &DEMCache{entries: make(map[string]*DEM), limit: limit}
}

var sharedDEMCache = NewDEMCache(0)

// SharedDEMCache returns the process-wide cache used by the Monte-Carlo
// engine paths (RunMemoryOpts and everything layered on it).
func SharedDEMCache() *DEMCache { return sharedDEMCache }

// BuildDEM returns the cached DEM for the configuration, building and
// inserting it on first use.
func (dc *DEMCache) BuildDEM(c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) (*DEM, error) {
	dem, _, err := dc.BuildDEMPatched(nil, nil, c, model, rounds, basis)
	return dem, err
}

// BuildDEMKeyed is BuildDEM plus the canonical cache key of the
// configuration. The key is a full serialization (never a hash), so it
// doubles as a content identity: two DEMs obtained under the same key are
// value-identical even when a wholesale clear or a build race handed out
// different pointers. The trajectory engine keys its per-DEM memo on it.
func (dc *DEMCache) BuildDEMKeyed(c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) (*DEM, string, error) {
	return dc.BuildDEMPatched(nil, nil, c, model, rounds, basis)
}

// BuildDEMPatched is BuildDEMKeyed with an incremental fast path: on a
// cache miss, when pt and base are non-nil and base's contribution plan
// covers model (a pure site-rate variant of base's model), the DEM is
// derived by pt.Patch instead of a full BuildDEM — value-identical output
// (pinned by the equivalence suite) at a fraction of the cost. The caller
// must pass a base built for the same (code, rounds, basis); the patch only
// re-rates it. Hit/miss accounting is the same either way: a patch fill is
// still a miss.
func (dc *DEMCache) BuildDEMPatched(pt *Patcher, base *DEM, c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) (*DEM, string, error) {
	key := demCacheKey(c, model, rounds, basis)
	dc.mu.Lock()
	if dem, ok := dc.entries[key]; ok {
		dc.hits++
		dc.mu.Unlock()
		obsCacheHits.Inc()
		return dem, key, nil
	}
	dc.mu.Unlock()
	var dem *DEM
	var ok bool
	// Patch only when base was enumerated for this exact code structure: a
	// bandage (super-stabilizer merge) or removal changes the mechanism set
	// itself, and a patch would silently re-rate the stale set. Fingerprint
	// mismatch → full build.
	if pt != nil && base != nil && base.plan != nil && base.plan.codeFP == c.Fingerprint() {
		dem, ok = pt.Patch(base, model)
	}
	if !ok {
		var err error
		dem, err = BuildDEM(c, model, rounds, basis)
		if err != nil {
			return nil, "", err
		}
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if existing, ok := dc.entries[key]; ok {
		// Lost a build race: adopt the first pointer so pointer-keyed
		// consumers (the decoder graph cache) stay coherent.
		dc.hits++
		obsCacheHits.Inc()
		return existing, key, nil
	}
	if len(dc.entries) >= dc.limit {
		dc.entries = make(map[string]*DEM)
		dc.clears++
		obsCacheClears.Inc()
	}
	dc.entries[key] = dem
	dc.misses++
	obsCacheMisses.Inc()
	return dem, key, nil
}

// CacheStats is a point-in-time snapshot of a DEMCache. Hits, Misses and
// Clears are monotone over the cache's lifetime — a wholesale clear resets
// the working set (Entries) but never the counters, so long-running
// consumers (the trajectory engine, surfdeform -stats) can difference
// snapshots across clears without losing history.
type CacheStats struct {
	// Hits and Misses count BuildDEM calls served from / inserted into the
	// cache.
	Hits, Misses int
	// Clears counts wholesale evictions (the working set grew past the
	// entry limit and was reset).
	Clears int
	// Entries is the current working-set size.
	Entries int
}

// Stats reports the cache's monotone counters and current working-set size.
func (dc *DEMCache) Stats() CacheStats {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return CacheStats{Hits: dc.hits, Misses: dc.misses, Clears: dc.clears, Entries: len(dc.entries)}
}

// demCacheKey serializes everything BuildDEM's output depends on: the
// structural content of the code (its Fingerprint, computed once per code
// state) and of the noise model (rates plus the defective set). Every cache
// lookup encodes one, so it appends into a single pre-sized buffer with
// strconv instead of formatting through fmt; refDemCacheKey
// (cache_ref_test.go), the fmt encoder it replaced, pins the bytes.
func demCacheKey(c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) string {
	fp := c.Fingerprint()
	// Room for the round/basis prefix, five rates of at most 24 bytes with
	// their tags, and typical coordinates; a longer key only grows b.
	b := make([]byte, 0, len(fp)+160+12*len(model.Defective)+40*len(model.SiteRates))
	b = append(b, 'r')
	b = strconv.AppendInt(b, int64(rounds), 10)
	b = append(b, "|b"...)
	b = strconv.AppendUint(b, uint64(basis), 10)
	b = append(b, '|')
	b = append(b, fp...)
	b = append(b, '|')
	return string(appendModelFingerprint(b, model))
}

func appendModelFingerprint(b []byte, m *noise.Model) []byte {
	for _, f := range [...]struct {
		tag  string
		rate float64
	}{{"p1:", m.P1}, {",p2:", m.P2}, {",pm:", m.PM}, {",pc:", m.PCorrelated}, {",dr:", m.DefectRate}} {
		b = append(b, f.tag...)
		b = strconv.AppendFloat(b, f.rate, 'g', -1, 64)
	}
	b = append(b, ",def:"...)
	defs := make([]lattice.Coord, 0, len(m.Defective))
	for q := range m.Defective {
		defs = append(defs, q)
	}
	lattice.SortCoords(defs)
	for _, q := range defs {
		b = append(appendCoord(b, q), ',')
	}
	if len(m.SiteRates) > 0 {
		b = append(b, "sr:"...)
		sites := make([]lattice.Coord, 0, len(m.SiteRates))
		for q := range m.SiteRates {
			sites = append(sites, q)
		}
		lattice.SortCoords(sites)
		for _, q := range sites {
			// Exact (hex-float) rate encoding: site rates are products of
			// quantized power-of-two multipliers and physical rates, and the
			// key must never identify two models whose rates differ in any
			// bit — nor split one overlay into two keys by formatting.
			b = append(appendCoord(b, q), '=')
			b = strconv.AppendFloat(b, m.SiteRates[q], 'x', -1, 64)
			b = append(b, ',')
		}
	}
	return b
}

// appendCoord appends q as "<row>.<col>".
func appendCoord(b []byte, q lattice.Coord) []byte {
	b = strconv.AppendInt(b, int64(q.Row), 10)
	b = append(b, '.')
	return strconv.AppendInt(b, int64(q.Col), 10)
}
