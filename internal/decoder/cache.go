package decoder

import (
	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
)

var (
	obsGraphCacheHits   = obs.Default().Counter("decoder.graph_cache.hits")
	obsGraphCacheMisses = obs.Default().Counter("decoder.graph_cache.misses")
)

// SharedGraph returns the decoding graph of dem, building it on the first
// call for that DEM only. The Monte-Carlo engine builds one decoder per
// worker from the same DEM; the decoder instances must be private (cluster
// growth and peeling scratch are mutable) but the decoding graph is
// immutable after construction, and building it is the expensive part of
// decoder construction. The graph is kept on the DEM itself (sim.DEM's
// Derived slot), so it lives exactly as long as the DEM: a DEM that no
// cache holds any more is collected with its graph, and a later call
// allocates nothing. Safe for concurrent use; the returned graph may be
// shared by any number of decoder instances.
func SharedGraph(dem *sim.DEM) *Graph {
	built := false
	g := dem.Derived(func(d *sim.DEM) any {
		built = true
		return NewGraph(d)
	}).(*Graph)
	if built {
		obsGraphCacheMisses.Inc()
	} else {
		obsGraphCacheHits.Inc()
	}
	return g
}
