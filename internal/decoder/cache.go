package decoder

import (
	"sync"

	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
)

var (
	obsGraphCacheHits   = obs.Default().Counter("decoder.graph_cache.hits")
	obsGraphCacheMisses = obs.Default().Counter("decoder.graph_cache.misses")
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
	graphCacheMu.Lock()
	defer graphCacheMu.Unlock()
	if g, ok := graphCache[dem]; ok {
		obsGraphCacheHits.Inc()
		return g
	}
	g := NewGraph(dem)
	if len(graphCache) >= graphCacheLimit {
		graphCache = make(map[*sim.DEM]*Graph)
	}
	graphCache[dem] = g
	obsGraphCacheMisses.Inc()
	return g
}
