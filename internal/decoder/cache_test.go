package decoder

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/sim"
)

// TestSharedGraphDiesWithItsDEM pins the graph's lifetime: SharedGraph
// keeps the graph on the DEM itself, so a DEM that no cache holds is
// collected after SharedGraph like any other garbage. A process-wide map
// keyed by the DEM pointer, which once held every graph, would keep the
// DEM, its plan and its graph reachable for the life of the process, and
// the finalizer would never run.
func TestSharedGraphDiesWithItsDEM(t *testing.T) {
	collected := make(chan struct{})
	func() {
		c := code.FromPatch(lattice.NewPatch(lattice.Coord{}, 3))
		dem, err := sim.BuildDEM(c, noise.Uniform(1e-3), 3, lattice.ZCheck)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(dem, func(*sim.DEM) { close(collected) })
		if SharedGraph(dem) != SharedGraph(dem) {
			t.Fatal("SharedGraph built a second graph for the same DEM")
		}
	}()
	for range 100 {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a DEM that no cache holds was never collected after SharedGraph: something keeps it reachable")
}

// TestSharedGraphBuildsOnce calls SharedGraph on one fresh DEM from 8
// goroutines at once, as the workers of a memory experiment do: all must
// get one graph, equal to NewGraph's, built once (one cache miss, the rest
// hits). Run it with -race.
func TestSharedGraphBuildsOnce(t *testing.T) {
	dem := demFor(t, 3, 3, 5e-3)
	h0, m0 := obsGraphCacheHits.Value(), obsGraphCacheMisses.Value()
	got := make([]*Graph, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = SharedGraph(dem)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != got[0] {
			t.Fatalf("goroutine %d got another graph", i)
		}
	}
	graphsIdentical(t, got[0], NewGraph(dem), "shared")
	if h, m := obsGraphCacheHits.Value()-h0, obsGraphCacheMisses.Value()-m0; m != 1 || h != int64(len(got)-1) {
		t.Errorf("%d misses and %d hits, want 1 and %d", m, h, len(got)-1)
	}
}
