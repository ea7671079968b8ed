package sim

import (
	"encoding/binary"
	"math"
	"sync"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
)

// Process-wide cache metrics, aggregated across every DEMCache instance;
// the per-instance ints in CacheStats stay authoritative for one cache.
var (
	obsCacheHits   = obs.Default().Counter("sim.dem_cache.hits")
	obsCacheMisses = obs.Default().Counter("sim.dem_cache.misses")
	obsCacheClears = obs.Default().Counter("sim.dem_cache.clears")
)

// DEMCache memoizes BuildDEM results keyed by DEMKey (code fingerprint,
// noise model, rounds, basis). Sweep pipelines hit the same handful of
// configurations thousands of times — per-policy baselines, the nominal
// decode-side model of every mismatched run, repeated (d, p) grid points —
// and DEM construction dominates their setup cost. Keys are exact, not
// hashes, so distinct configurations can never collide. Identical
// configurations return the identical *DEM pointer, which carries its
// decoding graph once decoder.SharedGraph has built it. A miss takes the
// fault structure from the process-wide structure cache (buildCached), so
// the DEMs of one code, rounds and basis under different models, in this
// cache or another, share one mechanism list and plan core
// (SamePatchCore) while that structure stays cached.
//
// The cache is safe for concurrent use. When it grows past its entry
// limit it is cleared wholesale: sweeps revisit a small working set, so a
// full reset costs one fold per live configuration (the structures are
// cached apart) and keeps the implementation free of LRU bookkeeping.
type DEMCache struct {
	mu      sync.Mutex
	entries map[DEMKey]*DEM
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
	return &DEMCache{entries: make(map[DEMKey]*DEM), limit: limit}
}

var sharedDEMCache = NewDEMCache(0)

// SharedDEMCache returns the process-wide cache used by the Monte-Carlo
// engine paths (RunMemoryOpts and everything layered on it).
func SharedDEMCache() *DEMCache { return sharedDEMCache }

// BuildDEM returns the cached DEM for the configuration, building and
// inserting it on first use.
func (dc *DEMCache) BuildDEM(c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) (*DEM, error) {
	dem, _, err := dc.BuildDEMKeyed(c, model, rounds, basis)
	return dem, err
}

// BuildDEMKeyed is BuildDEM plus the cache key of the configuration. The
// key is exact (never a hash), so it doubles as a content identity: two
// DEMs obtained under the same key are value-identical even when a
// wholesale clear or a build race handed out different pointers. Its code
// half is the fingerprint, so every code object of one structure keys
// alike, in any cache and at any time. The trajectory engine keys its
// model table on it.
func (dc *DEMCache) BuildDEMKeyed(c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) (*DEM, DEMKey, error) {
	key := DEMKeyOf(c, model, rounds, basis)
	dc.mu.Lock()
	if dem, ok := dc.entries[key]; ok {
		dc.hits++
		dc.mu.Unlock()
		obsCacheHits.Inc()
		return dem, key, nil
	}
	dc.mu.Unlock()
	dem, err := buildCached(c, model, rounds, basis)
	if err != nil {
		return nil, DEMKey{}, err
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if existing, ok := dc.entries[key]; ok {
		// Lost a build race: adopt the first pointer, so every caller
		// shares one DEM and the graph SharedGraph keeps on it.
		dc.hits++
		obsCacheHits.Inc()
		return existing, key, nil
	}
	if len(dc.entries) >= dc.limit {
		dc.entries = make(map[DEMKey]*DEM)
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

// DEMKey identifies everything BuildDEM's output depends on. It is
// comparable, so the caches use it as a map key directly. Two lookups share
// a key exactly when the reference serialization (refDemCacheKey in
// cache_ref_test.go) writes equal strings for them:
//   - the code enters as its memoized fingerprint (code.Code.Fingerprint),
//     held, not copied: the key shares the code's string, a lookup hashes
//     it, and keys of one code state compare equal by pointer;
//   - the five scalar rates enter as their bits, with every NaN mapped to
//     one bit pattern (the reference's %g text prints every NaN alike, and
//     distinguishes −0 from +0);
//   - Defective and SiteRates enter as one compact string: the
//     count-prefixed sorted defective coordinates (false entries too) as
//     varints, then the overrides as varint coordinates and canonical rate
//     bits, in the vector's own order — SiteRates is sorted by coordinate
//     and holds each coordinate once (noise.Model.SiteRates), so the
//     encoding is straight, with no sort. It is empty when the map and the
//     vector both are, so a lookup on a plain scalar model allocates
//     nothing.
type DEMKey struct {
	code   string
	rounds int
	basis  lattice.CheckType
	rates  [5]uint64
	sites  string
}

// DEMKeyOf returns the DEMKey of a lookup.
func DEMKeyOf(c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) DEMKey {
	k := DEMKey{
		code: c.Fingerprint(), rounds: rounds, basis: basis,
		rates: [5]uint64{rateBits(model.P1), rateBits(model.P2), rateBits(model.PM),
			rateBits(model.PCorrelated), rateBits(model.DefectRate)},
	}
	if len(model.Defective) > 0 || len(model.SiteRates) > 0 {
		k.sites = siteKey(model)
	}
	return k
}

// rateBits is the bit pattern of r, with every NaN canonicalized.
func rateBits(r float64) uint64 {
	if r != r {
		return canonicalNaN
	}
	return math.Float64bits(r)
}

var canonicalNaN = math.Float64bits(math.NaN())

// siteKey encodes the model's Defective set and SiteRates overrides.
func siteKey(m *noise.Model) string {
	var coordBuf [32]lattice.Coord
	var byteBuf [256]byte
	b := binary.AppendUvarint(byteBuf[:0], uint64(len(m.Defective)))
	defs := coordBuf[:0]
	for q := range m.Defective {
		defs = append(defs, q)
	}
	lattice.SortCoords(defs)
	for _, q := range defs {
		b = appendCoord(b, q)
	}
	for _, sr := range m.SiteRates {
		b = binary.LittleEndian.AppendUint64(appendCoord(b, sr.Q), rateBits(sr.Rate))
	}
	return string(b)
}

// appendCoord appends q as two varints.
func appendCoord(b []byte, q lattice.Coord) []byte {
	return binary.AppendVarint(binary.AppendVarint(b, int64(q.Row)), int64(q.Col))
}
