package decoder

import (
	"math"
	"testing"

	"surfdeformer/internal/sim"
)

func TestGraphDecomposition(t *testing.T) {
	dem := &sim.DEM{
		NumDets: 6,
		Mechs: []sim.Mechanism{
			{Dets: []int32{0, 1}},                  // plain edge
			{Dets: []int32{2}},                     // boundary edge
			{Dets: []int32{0, 1, 3, 4}, Obs: true}, // 4-det: decomposed
			{Dets: []int32{2, 3, 5}},               // 3-det: pair + boundary
			{Dets: nil, Obs: true},                 // free logical
		},
		P: []float64{0.01, 0.02, 0.005, 0.003, 0.001},
	}
	g := NewGraph(dem)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Decomposed != 2 {
		t.Errorf("Decomposed = %d, want 2", g.Decomposed)
	}
	if g.FreeLogicalP != 0.001 {
		t.Errorf("FreeLogicalP = %v, want 0.001", g.FreeLogicalP)
	}
	// The 4-det mechanism contributes edges (0,1) (merged with the plain
	// edge) and (3,4); the 3-det one contributes (2,3) and (5,boundary).
	type pair struct{ u, v int32 }
	want := map[pair]bool{
		{0, 1}: true, {3, 4}: true, {2, 3}: true,
		{2, Boundary}: true, {5, Boundary}: true,
	}
	got := map[pair]bool{}
	for _, e := range g.Edges {
		got[pair{e.U, e.V}] = true
	}
	for p := range want {
		if !got[p] {
			t.Errorf("missing edge %v", p)
		}
	}
	// Parallel mechanisms on (0,1) merged: probability combined.
	for _, e := range g.Edges {
		if e.U == 0 && e.V == 1 {
			wantP := 0.01 + 0.005 - 2*0.01*0.005
			if diff := e.P - wantP; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("merged edge P = %v, want %v", e.P, wantP)
			}
		}
	}
}

func TestGraphMergesObsToDominant(t *testing.T) {
	dem := &sim.DEM{
		NumDets: 2,
		Mechs: []sim.Mechanism{
			{Dets: []int32{0, 1}, Obs: false},
			{Dets: []int32{0, 1}, Obs: true},
		},
		P: []float64{0.001, 0.01},
	}
	g := NewGraph(dem)
	if len(g.Edges) != 1 {
		t.Fatalf("%d edges, want 1 merged", len(g.Edges))
	}
	if !g.Edges[0].Obs {
		t.Error("merged edge must carry the dominant mechanism's observable flag")
	}
}

// TestGraphClampAndDropSurfaced pins the satellite fix: edge probabilities
// at or above ½ are clamped to MaxEdgeProb and non-positive ones dropped —
// as before — but the graph now reports how often, instead of silently
// rewriting the prior. Reweighted decode DEMs hit both paths (estimated
// site rates near ½ merge into ≥½ parallel-edge mass).
func TestGraphClampAndDropSurfaced(t *testing.T) {
	dem := &sim.DEM{
		NumDets: 4,
		Mechs: []sim.Mechanism{
			{Dets: []int32{0, 1}}, // clamped outright
			{Dets: []int32{2}},    // merges with the next...
			{Dets: []int32{2}},    // ...to 0.4+0.3-2·0.12 = 0.46: kept
			{Dets: []int32{3}},    // dropped (zero probability)
			{Dets: []int32{0, 3}}, // healthy edge
		},
		P: []float64{0.6, 0.4, 0.3, 0, 0.01},
	}
	g := NewGraph(dem)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Clamped != 1 {
		t.Errorf("Clamped = %d, want 1", g.Clamped)
	}
	if g.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", g.Dropped)
	}
	wantClamped := math.Log((1 - MaxEdgeProb) / MaxEdgeProb)
	for _, e := range g.Edges {
		if e.U == 0 && e.V == 1 {
			if e.Weight != wantClamped {
				t.Errorf("clamped edge weight %v, want %v (the named constant's weight)", e.Weight, wantClamped)
			}
		}
		if e.Weight <= 0 {
			t.Errorf("edge (%d,%d) weight %v must stay positive after clamping", e.U, e.V, e.Weight)
		}
		if e.U == 3 && e.V == Boundary {
			t.Errorf("dropped zero-probability mechanism left its boundary edge in the graph")
		}
	}
	// A nominal-rate graph reports zero for both.
	nominal := NewGraph(&sim.DEM{NumDets: 2, Mechs: []sim.Mechanism{{Dets: []int32{0, 1}}}, P: []float64{0.001}})
	if nominal.Clamped != 0 || nominal.Dropped != 0 {
		t.Errorf("nominal graph reports clamped=%d dropped=%d, want 0/0", nominal.Clamped, nominal.Dropped)
	}
}

func TestGraphWeightsPositive(t *testing.T) {
	dem := &sim.DEM{
		NumDets: 2,
		Mechs: []sim.Mechanism{
			{Dets: []int32{0, 1}},
			{Dets: []int32{0}},
		},
		P: []float64{0.49, 1e-9},
	}
	g := NewGraph(dem)
	for _, e := range g.Edges {
		if e.Weight <= 0 {
			t.Errorf("edge weight %v must be positive", e.Weight)
		}
	}
}
