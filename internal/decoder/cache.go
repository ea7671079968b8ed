package decoder

import (
	"sync"

	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
)

var (
	obsGraphCacheHits   = obs.Default().Counter("decoder.graph_cache.hits")
	obsGraphCacheMisses = obs.Default().Counter("decoder.graph_cache.misses")
	obsGraphRederives   = obs.Default().Counter("decoder.graph.rederives")
)

// The graph cache memoizes NewGraph per DEM identity. The Monte-Carlo
// engine builds one decoder per worker from the same DEM; the decoder
// instances must be private (cluster growth and peeling scratch are
// mutable) but the decoding graph is immutable after construction, and
// building it is the expensive part of decoder construction. Keying on the
// *sim.DEM pointer works because sim.DEMCache returns a stable pointer per
// configuration; uncached DEMs simply miss and build, which is the
// pre-cache behavior.
var (
	graphCacheMu sync.Mutex
	graphCache   = make(map[*sim.DEM]*Graph)
)

// graphCacheLimit bounds the pointer-keyed cache; on overflow it resets
// wholesale, mirroring sim.DEMCache's eviction policy.
const graphCacheLimit = 256

// SharedGraph returns the decoding graph for the DEM, building it at most
// once per DEM identity. Safe for concurrent use; the returned graph is
// immutable and may be shared by any number of decoder instances.
func SharedGraph(dem *sim.DEM) *Graph {
	return SharedGraphFrom(dem, nil)
}

// SharedGraphFrom is SharedGraph with a structural fast path: on a cache
// miss, when base is a DEM sharing dem's patch core (sim.SamePatchCore —
// same mechanism/detector structure by construction), the new graph is
// derived by replaying base's merge skeleton with dem's probabilities
// instead of re-running the full merge. If base's graph is not cached (it
// was never requested, or a wholesale reset evicted it), it is built and
// cached first, so one full build serves every later variant of the same
// base. The result is identical to NewGraph(dem) — rederive bails to the
// full build whenever it cannot guarantee that — and is cached like any
// other.
func SharedGraphFrom(dem, base *sim.DEM) *Graph {
	graphCacheMu.Lock()
	defer graphCacheMu.Unlock()
	if g, ok := graphCache[dem]; ok {
		obsGraphCacheHits.Inc()
		return g
	}
	var g, bg *Graph
	fresh := 1
	if base != nil && base != dem && sim.SamePatchCore(dem, base) {
		var ok bool
		if bg, ok = graphCache[base]; !ok {
			bg = NewGraph(base)
			fresh++
		}
		if g = bg.rederive(dem); g != nil {
			obsGraphRederives.Inc()
		}
	}
	if g == nil {
		g = NewGraph(dem)
	}
	// Reset before inserting so a freshly built template and its variant
	// land in the same generation of the bounded cache.
	if len(graphCache)+fresh > graphCacheLimit {
		graphCache = make(map[*sim.DEM]*Graph)
	}
	if bg != nil {
		graphCache[base] = bg
	}
	graphCache[dem] = g
	obsGraphCacheMisses.Inc()
	return g
}
