// Package detect implements dynamic-defect detection.
//
// Two detectors are provided. Oracle models the hardware detectors the
// paper assumes ([31,32] and fig. 14b): it reports the true defective set
// distorted by configurable false-positive and false-negative rates.
// Window is a real statistical detector over the syndrome stream: a
// defective region fires its checks almost every round, so a sliding-window
// event-rate threshold per observable locates defects — the "statistical
// methods" of the paper's §II-B.
package detect

import (
	"math"
	"math/rand"
	"slices"

	"surfdeformer/internal/lattice"
)

// Oracle distorts the true defective set: every true defect is missed with
// probability fn, and every healthy candidate site is spuriously reported
// with probability fp. The paper's fig. 14b uses fp = fn = 0.01.
func Oracle(truth, healthy []lattice.Coord, fp, fn float64, rng *rand.Rand) []lattice.Coord {
	var out []lattice.Coord
	for _, q := range truth {
		if rng.Float64() >= fn {
			out = append(out, q)
		}
	}
	for _, q := range healthy {
		if rng.Float64() < fp {
			out = append(out, q)
		}
	}
	lattice.SortCoords(out)
	return out
}

// Window is a sliding-window syndrome-rate defect detector. Feed it the
// per-round firing pattern of each tracked observable; an observable whose
// event rate within the window exceeds the threshold is flagged.
//
// Every observable ever fed owns a dense slot holding its count of firings
// inside the trailing window. Feed keeps the counts current as the window
// slides: a queue of the fed firings, in round order, tells it whose
// firings leave the window. Flagged and EstimateRates then visit only the
// slots with firings inside the window, never the whole history.
type Window struct {
	rounds    int     // window length in rounds (≥ 1)
	threshold float64 // firing-rate threshold in (0, 1)
	halflife  float64 // EstimateRates temporal half-life in rounds (0 = uniform)

	current int
	first   int  // first round ever fed (for the warm-up window length)
	started bool // whether any round has been fed yet

	slotOf map[int32]int32 // observable → index into slots
	slots  []obsSlot
	live   []int32 // slots with firings inside the window, in no order
	queue  []firing
	qHead  int       // queue[qHead:] are the firings inside the window
	decay  []float64 // decay[a] = 0.5^(a/halflife), grown on demand
}

// obsSlot is one observable's dense state: its firing rounds since the
// last Trim, ascending, of which the last n are inside the window.
type obsSlot struct {
	obs    int32
	rounds []int
	n      int
	live   int32 // index in Window.live while n > 0
}

// firing is one fed (round, observable) pair, queued until it leaves the
// window.
type firing struct {
	round int
	slot  int32
}

// NewWindow creates a detector with the given window length and rate
// threshold. A healthy check fires at a rate of order the physical error
// rate (~1e-2 for weight-4 checks at p=1e-3); a check adjacent to a 50%
// defect fires at a rate near 0.5, so thresholds around 0.25 separate the
// two populations after a ~20-round window.
func NewWindow(rounds int, threshold float64) *Window {
	return &Window{rounds: rounds, threshold: threshold, slotOf: map[int32]int32{}}
}

// SetHalflife enables exponential temporal weighting in EstimateRates: a
// firing h rounds old contributes 0.5^(h/halflife) of a fresh one, so the
// estimate tracks rapid event churn instead of lagging by up to a full
// window (the staleness mode of DESIGN.md §9). Zero (the default) keeps
// the uniform window — bit-identical to the unweighted estimator.
// Flagging is unaffected: detection wants the full window's evidence.
// Negative half-lives are rejected by the callers' config validation; the
// detector itself treats them as zero.
func (w *Window) SetHalflife(halflife float64) {
	if halflife < 0 {
		halflife = 0
	}
	w.halflife = halflife
	w.decay = w.decay[:0]
}

// Feed records the observables that fired (produced a detection event) in
// the given round. Rounds must be fed in non-decreasing order; a feed for a
// round earlier than the latest one violates the contract and is ignored.
// Feeding the same (round, observable) pair twice is idempotent, so replayed
// or merged streams cannot inflate window rates past 1.
func (w *Window) Feed(round int, fired []int32) {
	if !w.started {
		w.started = true
		w.first = round
		w.current = round
	}
	if round < w.current {
		return // decreasing round: contract violation, ignore
	}
	w.current = round
	for _, o := range fired {
		si, ok := w.slotOf[o]
		if !ok {
			si = int32(len(w.slots))
			w.slotOf[o] = si
			w.slots = append(w.slots, obsSlot{obs: o})
		}
		s := &w.slots[si]
		if h := s.rounds; len(h) > 0 && h[len(h)-1] == round {
			continue // duplicate (round, observable) feed
		}
		s.rounds = append(s.rounds, round)
		if s.n == 0 {
			s.live = int32(len(w.live))
			w.live = append(w.live, si)
		}
		s.n++
		w.queue = append(w.queue, firing{round: round, slot: si})
	}
	w.expire()
}

// expire takes the firings older than the window out of the in-window
// counts.
func (w *Window) expire() {
	lo := w.current - w.rounds + 1
	for w.qHead < len(w.queue) && w.queue[w.qHead].round < lo {
		si := w.queue[w.qHead].slot
		w.qHead++
		s := &w.slots[si]
		if s.n--; s.n == 0 {
			last := w.live[len(w.live)-1]
			w.live[s.live] = last
			w.slots[last].live = s.live
			w.live = w.live[:len(w.live)-1]
		}
	}
	if w.qHead == len(w.queue) {
		w.queue, w.qHead = w.queue[:0], 0
	}
}

// effectiveRounds returns the number of rounds actually inside the trailing
// window: the configured length once the stream has warmed up, the number of
// rounds fed so far before that. Using the configured length during warm-up
// would demand threshold·rounds absolute firings from however few rounds
// have elapsed, inflating the detection latency of early-stream defects.
func (w *Window) effectiveRounds() int {
	if !w.started {
		return 0
	}
	if have := w.current - w.first + 1; have < w.rounds {
		return have
	}
	return w.rounds
}

// Flagged returns the observables whose event rate inside the trailing
// window exceeds the threshold. The rate denominator is the effective window
// length, so defects striking before one full window has elapsed are judged
// by the same rate criterion as late ones.
func (w *Window) Flagged() []int32 {
	return w.AppendFlagged(nil)
}

// AppendFlagged appends Flagged's observables, sorted, to dst and returns
// the extended slice, so a caller that flags every round can reuse one
// buffer. It returns dst unchanged (nil for a nil dst) when nothing is
// flagged.
func (w *Window) AppendFlagged(dst []int32) []int32 {
	eff := w.effectiveRounds()
	if eff == 0 {
		return dst
	}
	n := len(dst)
	for _, si := range w.live {
		if s := &w.slots[si]; float64(s.n) >= w.threshold*float64(eff) {
			dst = append(dst, s.obs)
		}
	}
	slices.Sort(dst[n:])
	return dst
}

// RateEstimate is one observable with sustained elevated firing: the
// observed windowed firing rate, the nominal baseline it was measured
// against, and the estimated physical error-rate multiplier at the
// observable's sites inferred by inverting the firing model.
type RateEstimate struct {
	Observable int32
	// FireRate is the raw observed firing rate inside the trailing window
	// (unclamped — it can reach 1.0; only the inversion saturates at ½, so
	// callers can compare FireRate against their own flag thresholds).
	FireRate float64
	// Baseline is the nominal per-round firing probability supplied by the
	// caller for this observable.
	Baseline float64
	// Multiplier is the estimated per-site physical error-rate multiplier:
	// estimated local rate ≈ Multiplier × nominal physical rate.
	Multiplier float64
}

// maxFireRate caps observed and baseline firing rates just below ½ before
// inversion: a detector firing at ≥ 50% carries no more rate information
// (the XOR of its mechanisms has saturated), and the inversion below is
// singular at exactly ½.
const maxFireRate = 0.499

// EstimateRates is the decoder-prior rate estimator of the paper's §VIII
// reweight tier: it maps sustained elevated firing onto estimated per-site
// physical error-rate multipliers.
//
// A detector's firing probability under independent error mechanisms is
// f = ½(1 − (1−2r)^k) — the XOR of k Bernoulli(r) draws — so the observed
// window rate is inverted through that saturating model rather than
// linearly: the effective mechanism count k is fitted from the supplied
// baseline rate at the nominal physical rate p, and the estimated local
// rate is r̂ = ½(1 − (1−2f)^(1/k)). Linear inversion (f/baseline) would
// underestimate strong elevations badly, because firing saturates at ½
// while local rates keep growing toward ½ per mechanism.
//
// baseline returns the nominal per-round firing probability of an
// observable (non-positive = unknown: the observable is skipped — e.g. a
// check that no longer exists in the current code). An observable
// qualifies only when it fired at least minFirings times inside the window
// ("sustained", so single noise firings over a short effective window
// cannot masquerade as drift) and its estimated Multiplier is at least
// minMultiplier. Results are sorted by observable id — deterministic for
// any feeding order.
func (w *Window) EstimateRates(p float64, baseline func(int32) float64, minMultiplier float64, minFirings int) []RateEstimate {
	eff := w.effectiveRounds()
	if eff == 0 || p <= 0 || p >= 0.5 {
		return nil
	}
	if minFirings < 1 {
		minFirings = 1
	}
	// Under exponential weighting the denominator is the total weight of
	// the rounds inside the effective window; it depends only on (eff,
	// halflife), so hoist it out of the per-observable loop.
	var weightedEff float64
	logNominal := math.Log(1 - 2*p) // each k below divides by it
	if w.halflife > 0 {
		for a := len(w.decay); a < eff; a++ {
			w.decay = append(w.decay, math.Pow(0.5, float64(a)/w.halflife))
		}
		for _, d := range w.decay[:eff] {
			weightedEff += d
		}
	}
	var out []RateEstimate
	for li, si := range w.live {
		s := &w.slots[si]
		n := s.n
		if n < minFirings {
			continue
		}
		o := s.obs
		f0 := baseline(o)
		if f0 <= 0 {
			continue
		}
		if f0 > maxFireRate {
			f0 = maxFireRate
		}
		raw := float64(n) / float64(eff)
		if w.halflife > 0 {
			// Weighted firing mass over weighted window mass: recent
			// firings dominate, so a subsided burst decays out of the
			// estimate with the half-life instead of persisting until it
			// slides past the window edge. The minFirings gate above
			// stays on the raw count — "sustained" is about evidence,
			// not recency. The mass sums in ascending round order.
			var mass float64
			for _, r := range s.rounds[len(s.rounds)-n:] {
				mass += w.decay[w.current-r]
			}
			raw = mass / weightedEff
		}
		f := raw
		if f > maxFireRate {
			f = maxFireRate
		}
		k := math.Log(1-2*f0) / logNominal
		if k < 1 {
			k = 1
		}
		est := 0.5 * (1 - math.Pow(1-2*f, 1/k))
		mult := est / p
		if mult < minMultiplier {
			continue
		}
		if out == nil {
			out = make([]RateEstimate, 0, len(w.live)-li) // the remaining slots bound the result
		}
		out = append(out, RateEstimate{Observable: o, FireRate: raw, Baseline: f0, Multiplier: mult})
	}
	slices.SortFunc(out, func(a, b RateEstimate) int { return int(a.Observable) - int(b.Observable) })
	return out
}

// Trim drops history older than the window (call occasionally on long
// streams to bound memory). The in-window counts say how much of each
// observable's history to keep, so no round is compared.
func (w *Window) Trim() {
	for i := range w.slots {
		s := &w.slots[i]
		if len(s.rounds) == s.n {
			continue // nothing older than the window
		}
		s.rounds = s.rounds[:copy(s.rounds, s.rounds[len(s.rounds)-s.n:])]
	}
	w.queue = w.queue[:copy(w.queue, w.queue[w.qHead:])]
	w.qHead = 0
}
