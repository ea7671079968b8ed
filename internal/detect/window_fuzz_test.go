package detect

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzWindowMatchesReference drives a Window and the map-based reference
// refWindow through one random sequence of Feed, Trim, SetHalflife,
// Flagged (and AppendFlagged) and EstimateRates calls and requires
// identical answers, floats bit for bit, and identical firing histories. Feeds repeat observables
// within a round, repeat and decrease rounds, and jump by gaps longer than
// the window; the half-life is 0 or positive and may change mid-stream.
func FuzzWindowMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(50), 0.0)
	f.Add(int64(2), uint8(20), uint8(25), 6.0)
	f.Add(int64(3), uint8(1), uint8(90), 0.5)
	f.Add(int64(4), uint8(40), uint8(10), 30.0)
	f.Fuzz(func(t *testing.T, seed int64, rounds, thresholdPct uint8, halflife float64) {
		if rounds == 0 || thresholdPct == 0 || thresholdPct >= 100 || math.IsNaN(halflife) || math.IsInf(halflife, 0) {
			t.Skip("window length ≥ 1, threshold in (0, 1) and a finite half-life")
		}
		rng := rand.New(rand.NewSource(seed))
		threshold := float64(thresholdPct) / 100
		w, ref := NewWindow(int(rounds), threshold), newRefWindow(int(rounds), threshold)
		w.SetHalflife(halflife)
		ref.SetHalflife(halflife)
		// Baselines span unknown (≤ 0), typical and saturated firing rates.
		baseline := func(o int32) float64 {
			switch o % 5 {
			case 0:
				return 0
			case 1:
				return 0.6
			}
			return 0.005 + float64(o%7)*0.01
		}
		round := rng.Intn(10)
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 12:
				switch rng.Intn(8) {
				case 0: // repeat the round
				case 1:
					round -= 1 + rng.Intn(3) // decreasing: ignored
				case 2:
					round += int(rounds) + 1 + rng.Intn(2*int(rounds)) // gap past the window
				default:
					round += 1 + rng.Intn(2)
				}
				var fired []int32
				for k := rng.Intn(6); k > 0; k-- {
					o := int32(rng.Intn(12))
					fired = append(fired, o)
					if rng.Intn(4) == 0 {
						fired = append(fired, o) // duplicate within the round
					}
				}
				w.Feed(round, fired)
				ref.Feed(round, fired)
			case op < 14:
				w.Trim()
				ref.Trim()
			case op == 14:
				hl := 0.0
				if rng.Intn(2) == 0 {
					hl = 0.5 + rng.Float64()*float64(rounds)
				}
				w.SetHalflife(hl)
				ref.SetHalflife(hl)
			case op < 17:
				want := ref.Flagged()
				if got := w.Flagged(); !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("step %d: Flagged = %v, reference %v", step, got, want)
				}
				prefix := []int32{-1, -2}
				if got := w.AppendFlagged(prefix); !slices.Equal(got, append(prefix, want...)) {
					t.Fatalf("step %d: AppendFlagged(%v) = %v, reference flags %v", step, prefix, got, want)
				}
			default:
				p := []float64{1e-3, 5e-3, 2e-2}[rng.Intn(3)]
				minMult, minFirings := float64(rng.Intn(4)), rng.Intn(4)
				got := w.EstimateRates(p, baseline, minMult, minFirings)
				want := ref.EstimateRates(p, baseline, minMult, minFirings)
				if !sameEstimates(got, want) {
					t.Fatalf("step %d: EstimateRates =\n%+v\nreference\n%+v", step, got, want)
				}
			}
			if h := w.history(); !maps.EqualFunc(h, ref.history, slices.Equal[[]int]) {
				t.Fatalf("step %d: history %v, reference %v", step, h, ref.history)
			}
		}
	})
}

// sameEstimates compares two estimate lists field by field, floats by bits.
func sameEstimates(a, b []RateEstimate) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if x.Observable != y.Observable || bits(x.FireRate) != bits(y.FireRate) ||
			bits(x.Baseline) != bits(y.Baseline) || bits(x.Multiplier) != bits(y.Multiplier) {
			return false
		}
	}
	return true
}
