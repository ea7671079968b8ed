package decoder

// Integration tests of the Monte-Carlo engine path (internal/mc via
// sim.RunMemoryOpts) against the real union-find decoder. They live here
// rather than in package sim because sim cannot import its own decoders.

import (
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/sim"
)

func engineTestCode(t *testing.T, d int) *code.Code {
	t.Helper()
	c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, d))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// Same seed ⇒ identical failure counts for any worker count — the
// engine's core determinism contract on a real memory experiment.
func TestRunMemoryDeterministicAcrossWorkers(t *testing.T) {
	c := engineTestCode(t, 5)
	model := noise.Uniform(4e-3)
	var refFailures, refShots int
	for i, workers := range []int{1, 4, 8} {
		res, err := sim.RunMemoryOpts(c, model, nil, sim.RunOptions{
			Rounds: 4, Basis: lattice.ZCheck, Factory: UnionFindFactory(),
			Shots: 6000, Workers: workers, Seed: 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refFailures, refShots = res.Failures, res.Shots
			if refFailures == 0 {
				t.Fatal("d=5 at p=4e-3 should fail sometimes in 6000 shots")
			}
			continue
		}
		if res.Failures != refFailures || res.Shots != refShots {
			t.Errorf("workers=%d: (failures=%d shots=%d), want (%d %d)",
				workers, res.Failures, res.Shots, refFailures, refShots)
		}
	}
}

// Early stopping must agree with the fixed-budget estimate within its
// confidence interval, while spending far fewer shots than the cap.
func TestRunMemoryEarlyStopWithinCI(t *testing.T) {
	c := engineTestCode(t, 3)
	model := noise.Uniform(6e-3)
	full, err := sim.RunMemoryOpts(c, model, nil, sim.RunOptions{
		Rounds: 4, Basis: lattice.ZCheck, Factory: UnionFindFactory(),
		Shots: 40_000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	early, err := sim.RunMemoryOpts(c, model, nil, sim.RunOptions{
		Rounds: 4, Basis: lattice.ZCheck, Factory: UnionFindFactory(),
		Shots: 400_000, TargetRSE: 0.08, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !early.EarlyStopped {
		t.Fatal("d=3 at p=6e-3 must reach 8% RSE well before 400k shots")
	}
	if early.Shots >= 400_000 {
		t.Errorf("adaptive run spent the whole cap: %d shots", early.Shots)
	}
	if full.LogicalErrorRate < early.CILow || full.LogicalErrorRate > early.CIHigh {
		t.Errorf("fixed-budget rate %v outside adaptive CI [%v, %v]",
			full.LogicalErrorRate, early.CILow, early.CIHigh)
	}
}

// The mismatched (two-DEM) path is deterministic across worker counts too.
func TestRunMemoryMismatchedDeterministic(t *testing.T) {
	c := engineTestCode(t, 5)
	nominal := noise.Uniform(noise.DefaultPhysical)
	hot := nominal.WithDefects([]lattice.Coord{{Row: 5, Col: 5}}, noise.DefaultDefectRate)
	var ref int
	for i, workers := range []int{1, 4, 8} {
		res, err := sim.RunMemoryOpts(c, hot, nominal, sim.RunOptions{
			Rounds: 4, Basis: lattice.ZCheck, Factory: UnionFindFactory(),
			Shots: 4000, Workers: workers, Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res.Failures
			continue
		}
		if res.Failures != ref {
			t.Errorf("workers=%d: failures=%d, want %d", workers, res.Failures, ref)
		}
	}
}
