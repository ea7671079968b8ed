package detect

// The map-based Window this package shipped before the in-window counts:
// every query ranges over each observable's whole firing history. It is
// the oracle FuzzWindowMatchesReference checks Window against, call for
// call.

import (
	"math"
	"slices"
)

// refWindow is the reference sliding-window detector.
type refWindow struct {
	rounds    int
	threshold float64
	halflife  float64

	history map[int32][]int // per observable: firing rounds since the last Trim
	current int
	first   int
	started bool
}

func newRefWindow(rounds int, threshold float64) *refWindow {
	return &refWindow{rounds: rounds, threshold: threshold, history: map[int32][]int{}}
}

func (w *refWindow) SetHalflife(halflife float64) {
	if halflife < 0 {
		halflife = 0
	}
	w.halflife = halflife
}

func (w *refWindow) Feed(round int, fired []int32) {
	if !w.started {
		w.started = true
		w.first = round
		w.current = round
	}
	if round < w.current {
		return
	}
	w.current = round
	for _, o := range fired {
		if h := w.history[o]; len(h) > 0 && h[len(h)-1] == round {
			continue
		}
		w.history[o] = append(w.history[o], round)
	}
}

func (w *refWindow) effectiveRounds() int {
	if !w.started {
		return 0
	}
	if have := w.current - w.first + 1; have < w.rounds {
		return have
	}
	return w.rounds
}

func (w *refWindow) Flagged() []int32 {
	eff := w.effectiveRounds()
	if eff == 0 {
		return nil
	}
	lo := w.current - w.rounds + 1
	var out []int32
	for o, rounds := range w.history {
		n := 0
		for _, r := range rounds {
			if r >= lo {
				n++
			}
		}
		if float64(n) >= w.threshold*float64(eff) {
			out = append(out, o)
		}
	}
	slices.Sort(out)
	return out
}

func (w *refWindow) EstimateRates(p float64, baseline func(int32) float64, minMultiplier float64, minFirings int) []RateEstimate {
	eff := w.effectiveRounds()
	if eff == 0 || p <= 0 || p >= 0.5 {
		return nil
	}
	if minFirings < 1 {
		minFirings = 1
	}
	lo := w.current - w.rounds + 1
	var weightedEff float64
	if w.halflife > 0 {
		for a := 0; a < eff; a++ {
			weightedEff += math.Pow(0.5, float64(a)/w.halflife)
		}
	}
	var out []RateEstimate
	for o, rounds := range w.history {
		n := 0
		for _, r := range rounds {
			if r >= lo {
				n++
			}
		}
		if n < minFirings {
			continue
		}
		f0 := baseline(o)
		if f0 <= 0 {
			continue
		}
		if f0 > maxFireRate {
			f0 = maxFireRate
		}
		raw := float64(n) / float64(eff)
		if w.halflife > 0 {
			var mass float64
			for _, r := range rounds {
				if r >= lo {
					mass += math.Pow(0.5, float64(w.current-r)/w.halflife)
				}
			}
			raw = mass / weightedEff
		}
		f := raw
		if f > maxFireRate {
			f = maxFireRate
		}
		k := math.Log(1-2*f0) / math.Log(1-2*p)
		if k < 1 {
			k = 1
		}
		est := 0.5 * (1 - math.Pow(1-2*f, 1/k))
		mult := est / p
		if mult < minMultiplier {
			continue
		}
		out = append(out, RateEstimate{Observable: o, FireRate: raw, Baseline: f0, Multiplier: mult})
	}
	slices.SortFunc(out, func(a, b RateEstimate) int { return int(a.Observable) - int(b.Observable) })
	return out
}

func (w *refWindow) Trim() {
	lo := w.current - w.rounds + 1
	for o, rounds := range w.history {
		keep := rounds[:0]
		for _, r := range rounds {
			if r >= lo {
				keep = append(keep, r)
			}
		}
		if len(keep) == 0 {
			delete(w.history, o)
			continue
		}
		w.history[o] = keep
	}
}
