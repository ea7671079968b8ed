package decoder

import (
	"math/rand"
	"slices"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/pauli"
	"surfdeformer/internal/sim"
)

func demFor(t *testing.T, d, rounds int, p float64) *sim.DEM {
	t.Helper()
	c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, d))
	dem, err := sim.BuildDEM(c, noise.Uniform(p), rounds, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	return dem
}

func TestGraphFromDEM(t *testing.T) {
	dem := demFor(t, 3, 4, 1e-3)
	g := NewGraph(dem)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) == 0 {
		t.Fatal("empty decoding graph")
	}
	hasBoundary := false
	for _, e := range g.Edges {
		if e.V == Boundary {
			hasBoundary = true
		}
	}
	if !hasBoundary {
		t.Error("surface code decoding graph must have boundary edges")
	}
}

func TestUnionFindAnnihilatesSyndrome(t *testing.T) {
	// Sample shots and verify the correction's edge boundary equals the
	// flagged set: every correction must be a valid explanation.
	dem := demFor(t, 5, 5, 3e-3)
	g := NewGraph(dem)
	uf := NewUnionFind(g)
	sampler := sim.NewSampler(dem)
	rng := rand.New(rand.NewSource(5))
	for shot := 0; shot < 300; shot++ {
		flagged, _ := sampler.Shot(rng)
		correction := uf.DecodeToEdges(flagged)
		parity := map[int32]int{}
		for _, ei := range correction {
			e := g.Edges[ei]
			parity[e.U]++
			if e.V != Boundary {
				parity[e.V]++
			}
		}
		want := map[int32]bool{}
		for _, d := range flagged {
			want[d] = true
		}
		for det, n := range parity {
			if (n%2 == 1) != want[det] {
				t.Fatalf("shot %d: correction boundary mismatch at detector %d (deg %d, flagged %v)",
					shot, det, n, want[det])
			}
			delete(want, det)
		}
		for det := range want {
			t.Fatalf("shot %d: flagged detector %d left unexplained", shot, det)
		}
	}
}

func TestUnionFindEmptySyndrome(t *testing.T) {
	dem := demFor(t, 3, 3, 1e-3)
	uf := NewUnionFind(NewGraph(dem))
	if uf.DecodeToObs(nil) {
		t.Error("empty syndrome must predict no flip")
	}
}

func TestDecodersAgreeOnSimpleShots(t *testing.T) {
	// On low-weight syndromes the union-find, greedy, and exact decoders
	// should agree almost always; require exact match on weight <= 2.
	dem := demFor(t, 3, 4, 2e-3)
	g := NewGraph(dem)
	uf := NewUnionFind(g)
	ex := NewExact(g, 12)
	sampler := sim.NewSampler(dem)
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for shot := 0; shot < 2000 && checked < 200; shot++ {
		flagged, _ := sampler.Shot(rng)
		if len(flagged) == 0 || len(flagged) > 2 {
			continue
		}
		checked++
		if got, want := uf.DecodeToObs(flagged), ex.DecodeToObs(flagged); got != want {
			t.Errorf("shot %d (%v): union-find %v vs exact %v", shot, flagged, got, want)
		}
	}
	if checked == 0 {
		t.Fatal("no small syndromes sampled")
	}
}

func TestExactBeatsOrMatchesGreedy(t *testing.T) {
	// Decoding failure rates: exact must be at least as good as greedy,
	// and union-find in between (loose statistical check).
	dem := demFor(t, 3, 4, 8e-3)
	g := NewGraph(dem)
	decoders := map[string]sim.Decoder{
		"uf":     NewUnionFind(g),
		"greedy": NewGreedy(g),
		"exact":  NewExact(g, 14),
	}
	sampler := sim.NewSampler(dem)
	shots := 1500
	fails := map[string]int{}
	type shotData struct {
		flagged []int32
		obs     bool
	}
	rng := rand.New(rand.NewSource(3))
	var data []shotData
	for i := 0; i < shots; i++ {
		flagged, obs := sampler.Shot(rng)
		// Shot returns sampler-owned scratch; clone to keep it.
		data = append(data, shotData{slices.Clone(flagged), obs})
	}
	for name, dec := range decoders {
		for _, sd := range data {
			if dec.DecodeToObs(sd.flagged) != sd.obs {
				fails[name]++
			}
		}
	}
	if fails["exact"] > fails["greedy"]+25 {
		t.Errorf("exact (%d fails) should not lose badly to greedy (%d)", fails["exact"], fails["greedy"])
	}
	t.Logf("failures: uf=%d greedy=%d exact=%d of %d", fails["uf"], fails["greedy"], fails["exact"], shots)
}

func TestMemoryLogicalErrorScalesWithDistance(t *testing.T) {
	// The decisive end-to-end check of the whole stack: below threshold,
	// a d=5 code must fail less often than a d=3 code.
	model := noise.Uniform(4e-3)
	run := func(d int) float64 {
		c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, d))
		res, err := sim.RunMemoryOpts(c, model, nil, sim.RunOptions{
			Rounds: 4, Basis: lattice.ZCheck, Factory: UnionFindFactory(), Shots: 4000, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.LogicalErrorRate
	}
	p3, p5 := run(3), run(5)
	t.Logf("memory-Z failure rates: d=3 %.4f, d=5 %.4f", p3, p5)
	if p3 == 0 {
		t.Fatal("d=3 at p=4e-3 should show failures with 4000 shots")
	}
	if p5 >= p3 {
		t.Errorf("d=5 (%.4f) should beat d=3 (%.4f) below threshold", p5, p3)
	}
}

func TestDefectRemovalBeatsUntreated(t *testing.T) {
	// Miniature of fig. 11a: a 50%-error defect region destroys an
	// untreated d=5 code; the same code with defective qubits removed
	// (super-stabilizer structure) performs orders of magnitude better.
	defects := []lattice.Coord{{Row: 5, Col: 5}}
	nominal := noise.Uniform(1e-3)
	model := nominal.WithDefects(defects, noise.DefaultDefectRate)

	// Untreated: the hardware errors at 50% in the defect region but the
	// decoder keeps its nominal priors (nobody told it about the defect).
	untreated := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, 5))
	run := sim.RunOptions{Rounds: 4, Basis: lattice.ZCheck, Factory: UnionFindFactory(), Shots: 2000, Seed: 7}
	resU, err := sim.RunMemoryOpts(untreated, model, nominal, run)
	if err != nil {
		t.Fatal(err)
	}

	// Removed: deform the code by hand (DataQRM structure).
	treated := removedDataQubit(t, 5, defects[0])
	resT, err := sim.RunMemoryOpts(treated, model, nil, run)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("untreated %.4f vs removed %.4f", resU.LogicalErrorRate, resT.LogicalErrorRate)
	if resT.LogicalErrorRate >= resU.LogicalErrorRate {
		t.Errorf("removal (%.4f) should beat untreated 50%% defect (%.4f)",
			resT.LogicalErrorRate, resU.LogicalErrorRate)
	}
}

// removedDataQubit is a distance-d patch deformed by hand to drop data
// qubit q0 (DataQRM structure): each X and Z check on q0 becomes a gauge
// restricted off q0, and their product a super-stabilizer.
func removedDataQubit(t *testing.T, d int, q0 lattice.Coord) *code.Code {
	t.Helper()
	c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, d))
	notQ0 := func(q lattice.Coord) bool { return q != q0 }
	for _, typ := range []lattice.CheckType{lattice.XCheck, lattice.ZCheck} {
		var ids []int
		var prod pauli.Op
		for _, s := range c.StabsOn(q0, typ) {
			prod = pauli.Mul(prod, s.Op)
			c.RemoveStab(s.ID)
			ids = append(ids, c.AddGauge(s.Op.RestrictedTo(notQ0), s.Ancilla, false))
		}
		c.AddSuperStab(prod.RestrictedTo(notQ0), ids)
	}
	if err := c.RemoveDataQubit(q0); err != nil {
		t.Fatal(err)
	}
	if err := c.RefreshLogicals(); err != nil {
		t.Fatal(err)
	}
	return c
}
