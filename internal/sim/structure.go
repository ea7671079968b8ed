package sim

import (
	"container/list"
	"sync"
	"unsafe"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/obs"
)

// Structure-cache metrics: lookups served from the cache, lookups that
// enumerated, and structures evicted to stay under the byte bound.
var (
	obsStructHits      = obs.Default().Counter("sim.dem.structure_hits")
	obsStructMisses    = obs.Default().Counter("sim.dem.structure_misses")
	obsStructEvictions = obs.Default().Counter("sim.dem.structure_evictions")
)

// structureLimit bounds the bytes the process-wide structure cache counts
// (structBytes); a trajectory chunk's d=3 structure counts about 40 KB
// (median; up to 150 KB). Replaying the lookups of 10 s one-worker
// benchsuite runs (seed 11) at this bound hits 45% of traj-scan's and 13%
// of layout-simon's builds (89% and 74% with no bound), and traj-scan
// heap_mb read 4.66 MB against the parent commit's 4.67 (3.14 without the
// cache, 7.86 at 2 MB): the bound spends on structures what dropping the
// graph map and run-length plans saved on that workload. Over ten
// alternating 25 s pairs (seed 1) its median read 7.12 MB against the
// parent's 7.21, with cycles_per_s 1.107 times the parent's.
const structureLimit = 768 << 10

// structKey identifies a fault structure: everything enumerate's output
// depends on. The code enters as its memoized fingerprint, held, as in
// DEMKey.
type structKey struct {
	code       string
	rounds     int
	basis      lattice.CheckType
	correlated bool
}

// structEntry is one cached structure, with the bytes it counts.
type structEntry struct {
	key   structKey
	st    *DEM
	bytes int
}

// structCache is a least-recently-used cache of fault structures under one
// byte bound. Each structure is what enumerate returns: a DEM without P
// whose plan holds the core only. Every DEM folded from a cached structure
// shares its detector layout, mechanism list, observables and core, and
// nothing writes to them (a fold that drops a mechanism builds fresh
// slices, DEM.drop), so one structure serves any number of DEMs and
// goroutines. The cache is safe for concurrent use; a miss enumerates
// outside the lock.
type structCache struct {
	mu      sync.Mutex
	entries map[structKey]*list.Element // of *structEntry
	lru     list.List                   // front: most recently used
	bytes   int
	limit   int
}

func newStructCache(limit int) *structCache {
	return &structCache{entries: map[structKey]*list.Element{}, limit: limit}
}

var structures = newStructCache(structureLimit)

// get returns the fault structure of (c, rounds, basis), with the
// correlated pair when correlated: the cached one, or a fresh enumeration,
// which it then caches, evicting the least recently used structures until
// the bound holds again. A structure larger than the bound on its own is
// returned without being cached.
func (sc *structCache) get(c *code.Code, rounds int, basis lattice.CheckType, correlated bool) (*DEM, error) {
	key := structKey{code: c.Fingerprint(), rounds: rounds, basis: basis, correlated: correlated}
	sc.mu.Lock()
	if el, ok := sc.entries[key]; ok {
		sc.lru.MoveToFront(el)
		sc.mu.Unlock()
		obsStructHits.Inc()
		return el.Value.(*structEntry).st, nil
	}
	sc.mu.Unlock()
	obsStructMisses.Inc()
	st, err := enumerate(c, rounds, basis, correlated)
	if err != nil {
		return nil, err
	}
	e := &structEntry{key: key, st: st, bytes: structBytes(key, st)}
	if e.bytes > sc.limit {
		return st, nil
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if el, ok := sc.entries[key]; ok {
		// Another goroutine cached the key meanwhile: share its structure.
		sc.lru.MoveToFront(el)
		return el.Value.(*structEntry).st, nil
	}
	for sc.bytes+e.bytes > sc.limit {
		old := sc.lru.Remove(sc.lru.Back()).(*structEntry)
		delete(sc.entries, old.key)
		sc.bytes -= old.bytes
		obsStructEvictions.Inc()
	}
	sc.entries[key] = sc.lru.PushFront(e)
	sc.bytes += e.bytes
	return st, nil
}

// structBytes is the size a cached structure counts: its key's
// fingerprint and every slice it keeps, at their lengths, with the
// dense-index map at one key and value per entry. Headers and the map's
// buckets are left out, so it undercounts the heap a little.
func structBytes(key structKey, st *DEM) int {
	core, coord := st.plan.core, int(unsafe.Sizeof(lattice.Coord{}))
	n := len(key.code)
	n += len(st.Mechs) * int(unsafe.Sizeof(Mechanism{}))
	for _, m := range st.Mechs {
		n += 4 * len(m.Dets)
	}
	n += 4 * (len(st.DetRound) + len(st.DetObs))
	for _, o := range st.Observables {
		n += int(unsafe.Sizeof(o)) + coord*(len(o.Support)+len(o.Ancillas))
	}
	n += coord*len(core.coords) + (coord+4)*len(core.qIdx)
	n += int(unsafe.Sizeof(planContrib{})) * len(core.contribs)
	n += 4 * (len(core.mechOff) + len(core.siteOff) + len(core.siteMechs))
	return n
}
