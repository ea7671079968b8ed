package sim

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
)

func TestFrameSimulatorZeroNoise(t *testing.T) {
	c := freshCode(t, 3)
	f, err := NewFrameSimulator(c, noise.Uniform(0), 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	flagged, obs := f.Batch(rand.New(rand.NewSource(1)))
	for shot := 0; shot < 64; shot++ {
		if len(flagged[shot]) != 0 || obs[shot] {
			t.Fatalf("zero-noise shot %d produced events", shot)
		}
	}
}

func TestFrameSimulatorDetectorLayoutMatchesDEM(t *testing.T) {
	c := freshCode(t, 3)
	model := noise.Uniform(1e-3)
	dem, err := BuildDEM(c, model, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFrameSimulator(c, model, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumDetectors() != dem.NumDets {
		t.Fatalf("frame sim has %d detectors, DEM has %d", f.NumDetectors(), dem.NumDets)
	}
}

// TestFrameSimulatorCrossValidatesDEM is the decisive consistency check of
// the whole simulation stack: the DEM path (fault enumeration + mechanism
// sampling) and the direct frame simulation must produce statistically
// identical detector-event rates and logical-flip rates, since they model
// the same circuit under the same noise.
func TestFrameSimulatorCrossValidatesDEM(t *testing.T) {
	cases := []struct {
		name  string
		c     *code.Code
		model *noise.Model
		basis lattice.CheckType
	}{
		{"d3-Z", freshCode(t, 3), noise.Uniform(5e-3), lattice.ZCheck},
		{"d3-X", freshCode(t, 3), noise.Uniform(5e-3), lattice.XCheck},
		{"deformed-Z", deformedCode(t), noise.Uniform(5e-3), lattice.ZCheck},
		{"deformed-X", deformedCode(t), noise.Uniform(5e-3), lattice.XCheck},
		{"d3-Z-correlated", freshCode(t, 3), noise.Uniform(5e-3).WithCorrelated(2e-3), lattice.ZCheck},
	}
	const rounds = 4
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dem, err := BuildDEM(tc.c, tc.model, rounds, tc.basis)
			if err != nil {
				t.Fatal(err)
			}
			sampler := NewSampler(dem)
			rng1 := rand.New(rand.NewSource(7))
			demShots := 30000
			demEvents := 0
			demObs := 0
			perDetDEM := make([]int, dem.NumDets)
			for s := 0; s < demShots; s++ {
				flagged, obs := sampler.Shot(rng1)
				demEvents += len(flagged)
				for _, d := range flagged {
					perDetDEM[d]++
				}
				if obs {
					demObs++
				}
			}

			f, err := NewFrameSimulator(tc.c, tc.model, rounds, tc.basis)
			if err != nil {
				t.Fatal(err)
			}
			rng2 := rand.New(rand.NewSource(8))
			frameShots := 0
			frameEvents := 0
			frameObs := 0
			perDetFrame := make([]int, f.NumDetectors())
			for batch := 0; batch < 470; batch++ { // ≈30k shots
				flagged, obs := f.Batch(rng2)
				for shot := 0; shot < 64; shot++ {
					frameShots++
					frameEvents += len(flagged[shot])
					for _, d := range flagged[shot] {
						perDetFrame[d]++
					}
					if obs[shot] {
						frameObs++
					}
				}
			}

			demRate := float64(demEvents) / float64(demShots)
			frameRate := float64(frameEvents) / float64(frameShots)
			t.Logf("mean detection events/shot: DEM %.4f vs frames %.4f", demRate, frameRate)
			if ratio := demRate / frameRate; ratio < 0.93 || ratio > 1.07 {
				t.Errorf("detection-event rates differ: DEM %.4f vs frames %.4f", demRate, frameRate)
			}
			demObsRate := float64(demObs) / float64(demShots)
			frameObsRate := float64(frameObs) / float64(frameShots)
			t.Logf("observable flip rate: DEM %.4f vs frames %.4f", demObsRate, frameObsRate)
			// Binomial 3σ window around the pooled rate.
			pooled := (demObsRate + frameObsRate) / 2
			sigma := 3 * math.Sqrt(pooled*(1-pooled)*(1.0/float64(demShots)+1.0/float64(frameShots)))
			if diff := math.Abs(demObsRate - frameObsRate); diff > sigma+1e-4 {
				t.Errorf("observable flip rates differ beyond 3σ: %.4f vs %.4f (σ=%.4f)", demObsRate, frameObsRate, sigma)
			}
			// Per-detector rates: the busiest detectors must agree within 15%.
			for d := 0; d < dem.NumDets; d++ {
				dr := float64(perDetDEM[d]) / float64(demShots)
				fr := float64(perDetFrame[d]) / float64(frameShots)
				if dr < 0.01 && fr < 0.01 {
					continue // too rare for a tight comparison
				}
				if dr == 0 || fr == 0 || dr/fr < 0.85 || dr/fr > 1.18 {
					t.Errorf("detector %d rate mismatch: DEM %.4f vs frames %.4f", d, dr, fr)
				}
			}
		})
	}
}

// faultSignature steps f's circuit with no noise and one injected fault,
// and returns the detectors the fault flips (sorted) and whether it flips
// the observable. The fault xors paulis[i] (bit 0: X, bit 1: Z) onto qubit
// qs[i] right before op at or, when rec >= 0, flips measurement record rec.
// It shares no code with BuildDEM's pass or with the reference enumeration.
func faultSignature(f *FrameSimulator, at int, qs []int32, paulis []uint8, rec int32) ([]int32, bool) {
	fx := make([]bool, f.nQubits)
	fz := make([]bool, f.nQubits)
	recs := make([]bool, f.nRec)
	for i, op := range f.ops {
		if i == at {
			for j, q := range qs {
				fx[q] = fx[q] != (paulis[j]&1 != 0)
				fz[q] = fz[q] != (paulis[j]&2 != 0)
			}
		}
		switch op.kind {
		case opReset:
			fx[op.a], fz[op.a] = false, false
		case opCX:
			fx[op.b] = fx[op.b] != fx[op.a]
			fz[op.a] = fz[op.a] != fz[op.b]
		case opMeas:
			if op.basis == lattice.ZCheck {
				recs[op.rec] = fx[op.a]
			} else {
				recs[op.rec] = fz[op.a]
			}
		}
	}
	if rec >= 0 {
		recs[rec] = !recs[rec]
	}
	fired := make([]bool, f.nDets)
	obs := false
	for r, flipped := range recs {
		if !flipped {
			continue
		}
		for _, d := range f.recDets[r] {
			fired[d] = !fired[d]
		}
		obs = obs != f.obsRec[r]
	}
	var dets []int32
	for d, on := range fired {
		if on {
			dets = append(dets, int32(d))
		}
	}
	return dets, obs
}

// TestFrameSimulatorSingleFaultsMatchDEM is the exact oracle: injecting
// every elementary fault of the circuit alone — a reset flip, each of the
// 15 two-qubit Paulis after a CX, an idle X/Y/Z at a round start, a
// measurement-record flip — must produce exactly the signatures BuildDEM
// lists as mechanisms (every rate is positive, so every fault is one).
func TestFrameSimulatorSingleFaultsMatchDEM(t *testing.T) {
	codes := []struct {
		name string
		c    *code.Code
	}{
		{"d3", freshCode(t, 3)},
		{"deformed", deformedCode(t)},
	}
	const rounds = 4
	model := noise.Uniform(1e-3)
	for _, tc := range codes {
		for _, basis := range []lattice.CheckType{lattice.ZCheck, lattice.XCheck} {
			dem, err := BuildDEM(tc.c, model, rounds, basis)
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFrameSimulator(tc.c, model, rounds, basis)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{}
			for _, m := range dem.Mechs {
				want[fmt.Sprint(m.Dets, m.Obs)] = true
			}
			got := map[string]bool{}
			add := func(dets []int32, obs bool) {
				if len(dets) > 0 || obs {
					got[fmt.Sprint(dets, obs)] = true
				}
			}
			for i, op := range f.ops {
				switch op.kind {
				case opReset:
					flip := uint8(1) // X after |0>, Z after |+>
					if op.basis == lattice.XCheck {
						flip = 2
					}
					add(faultSignature(f, i+1, []int32{op.a}, []uint8{flip}, -1))
				case opCX:
					for m := 1; m < 16; m++ { // bits: X_a, X_b, Z_a, Z_b
						pa := uint8(m&1 | (m>>2&1)<<1)
						pb := uint8(m>>1&1 | (m>>3&1)<<1)
						add(faultSignature(f, i+1, []int32{op.a, op.b}, []uint8{pa, pb}, -1))
					}
				case opMeas:
					add(faultSignature(f, len(f.ops), nil, nil, op.rec))
				}
			}
			for _, at := range f.idleBefore {
				for qi, q := range f.coords {
					if !q.IsData() {
						continue
					}
					for p := uint8(1); p <= 3; p++ {
						add(faultSignature(f, at, []int32{int32(qi)}, []uint8{p}, -1))
					}
				}
			}
			if !maps.Equal(got, want) {
				for k := range got {
					if !want[k] {
						t.Errorf("%s/basis %v: injected fault %s missing from the DEM", tc.name, basis, k)
					}
				}
				for k := range want {
					if !got[k] {
						t.Errorf("%s/basis %v: DEM mechanism %s matches no single fault", tc.name, basis, k)
					}
				}
			}
		}
	}
}

func TestBiasedMaskStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range []float64{0.001, 0.02, 0.3, 0.9} {
		total := 0
		draws := 4000
		for i := 0; i < draws; i++ {
			m := biasedMask(p, rng)
			for ; m != 0; m &= m - 1 {
				total++
			}
		}
		got := float64(total) / float64(draws*64)
		if got < p*0.85-0.001 || got > p*1.15+0.001 {
			t.Errorf("biasedMask(%v) bit rate %.4f", p, got)
		}
	}
	if biasedMask(0, rng) != 0 {
		t.Error("p=0 must give empty mask")
	}
	if biasedMask(1, rng) != ^uint64(0) {
		t.Error("p=1 must give full mask")
	}
}
