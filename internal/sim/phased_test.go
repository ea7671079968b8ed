package sim

import (
	"math/rand"
	"testing"

	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
)

func TestPhasedDEMLayoutMatchesUniform(t *testing.T) {
	c := freshCode(t, 3)
	nominal := noise.Uniform(1e-3)
	uniform, err := BuildDEM(c, nominal, 6, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	phased, err := BuildPhasedDEM(c, []Phase{
		{Rounds: 3, Model: nominal},
		{Rounds: 3, Model: nominal},
	}, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if phased.NumDets != uniform.NumDets {
		t.Fatalf("detector count %d vs %d", phased.NumDets, uniform.NumDets)
	}
	// Identical models in both phases must give the identical DEM.
	if len(phased.Mechs) != len(uniform.Mechs) {
		t.Fatalf("mechanism count %d vs %d", len(phased.Mechs), len(uniform.Mechs))
	}
	for i := range phased.Mechs {
		if phased.P[i] != uniform.P[i] {
			t.Fatalf("mechanism %d probability differs", i)
		}
	}
}

func TestPhasedDEMDefectOnset(t *testing.T) {
	c := freshCode(t, 5)
	nominal := noise.Uniform(1e-3)
	hot := nominal.WithDefects([]lattice.Coord{{Row: 5, Col: 5}}, 0.5)
	dem, err := BuildPhasedDEM(c, []Phase{
		{Rounds: 4, Model: nominal},
		{Rounds: 4, Model: hot},
	}, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	// Detection events concentrate after the onset: sample shots and
	// compare early-round vs late-round event counts.
	sampler := NewSampler(dem)
	rng := rand.New(rand.NewSource(9))
	early, late := 0, 0
	for s := 0; s < 300; s++ {
		flagged, _ := sampler.Shot(rng)
		for _, det := range flagged {
			if dem.DetRound[det] < 4 {
				early++
			} else {
				late++
			}
		}
	}
	if late < 5*early {
		t.Errorf("defect onset invisible: %d early vs %d late events", early, late)
	}
}

func TestPhasedDEMValidation(t *testing.T) {
	c := freshCode(t, 3)
	nominal := noise.Uniform(1e-3)
	if _, err := BuildPhasedDEM(c, nil, lattice.ZCheck); err == nil {
		t.Error("empty phase list must fail")
	}
	if _, err := BuildPhasedDEM(c, []Phase{{Rounds: 0, Model: nominal}}, lattice.ZCheck); err == nil {
		t.Error("zero-round phase must fail")
	}
	if _, err := BuildPhasedDEM(c, []Phase{{Rounds: 3, Model: nil}}, lattice.ZCheck); err == nil {
		t.Error("nil model must fail")
	}
	if _, err := BuildPhasedDEM(c, []Phase{{Rounds: 1, Model: nominal}}, lattice.ZCheck); err == nil {
		t.Error("single-round total must fail")
	}
}

func TestObservablesInfo(t *testing.T) {
	c := freshCode(t, 3)
	dem, err := BuildDEM(c, noise.Uniform(1e-3), 3, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if len(dem.Observables) != len(c.Stabs()) {
		t.Fatalf("%d observable infos, want %d", len(dem.Observables), len(c.Stabs()))
	}
	for _, det := range []int32{0, int32(dem.NumDets - 1)} {
		oi := dem.DetObs[det]
		info := dem.Observables[oi]
		if len(info.Support) == 0 || len(info.Ancillas) == 0 {
			t.Errorf("observable %d missing location info", oi)
		}
		if info.Type != lattice.ZCheck {
			t.Errorf("memory-Z detectors must track Z observables")
		}
	}
}
