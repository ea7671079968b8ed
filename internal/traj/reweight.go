package traj

// The decoder-prior reweight tier (paper §VIII): the window detector's
// per-observable rate estimates are inverted into per-site physical-rate
// multipliers, quantized, severity-routed against the arm's mitigation
// ladder, and overlaid on the nominal decode model. Sampling always stays
// on the true rates — the arm measures honest estimated-prior decoding,
// and the decode model is driven by the detector alone (nominal before
// detection), never by the event list.

import (
	"math"

	"surfdeformer/internal/code"
	"surfdeformer/internal/decoder"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/detect"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/sim"
)

const (
	// reweightMinFirings is the "sustained" gate of the rate estimator: an
	// observable must fire at least this often inside the window before its
	// rate is trusted. A healthy check at the nominal rate fires well under
	// once per window, so a single noise firing over a short effective
	// window can never masquerade as drift.
	reweightMinFirings = 3
	// DefaultReweightFactor is the elevation gate: an observable's
	// estimated rate multiplier must reach this factor before the reweight
	// tier acts (Config.ReweightFactor overrides).
	DefaultReweightFactor = 3.0
)

// Mitigation returns the §VIII mitigation ladder of an arm: which tiers
// the mode enables. This is the policy hook the runtime consults (and
// installs on core.System for the deforming arms).
func (m Mode) Mitigation() deform.Mitigation {
	switch m {
	case ModeSurfDeformer:
		return deform.FullLadder()
	case ModeASC:
		return deform.Mitigation{DeformTier: true}
	case ModeReweightOnly:
		return deform.Mitigation{ReweightTier: true}
	case ModeSuperOnly:
		return deform.Mitigation{SuperTier: true}
	}
	return deform.Mitigation{} // untreated: nominal priors, untouched code
}

// obsStats is the per-DEM view the rate estimator needs: each stable
// observable id's nominal per-round firing probability (the baseline
// elevation is measured against), its data support, and its ancillas —
// kept apart because the overlay localizes drift by voting across
// supports and falls back to the ancilla only when voting fails.
type obsStats struct {
	baseline map[int32]float64
	support  map[int32][]lattice.Coord
	ancillas map[int32][]lattice.Coord
}

func newObsStats(dem *sim.DEM) *obsStats {
	st := &obsStats{
		baseline: map[int32]float64{},
		support:  map[int32][]lattice.Coord{},
		ancillas: map[int32][]lattice.Coord{},
	}
	fire := dem.DetectorFireRates()
	counts := map[int32]int{}
	for det, f := range fire {
		id := stableID(dem.Observables[dem.DetObs[det]])
		st.baseline[id] += f
		counts[id]++
	}
	for id, n := range counts {
		st.baseline[id] /= float64(n)
	}
	addUnique := func(dst map[int32][]lattice.Coord, id int32, qs []lattice.Coord) {
		for _, q := range qs {
			found := false
			for _, have := range dst[id] {
				if have == q {
					found = true
					break
				}
			}
			if !found {
				dst[id] = append(dst[id], q)
			}
		}
	}
	for _, info := range dem.Observables {
		id := stableID(info)
		addUnique(st.support, id, info.Support)
		addUnique(st.ancillas, id, info.Ancillas)
	}
	for id := range st.support {
		lattice.SortCoords(st.support[id])
	}
	for id := range st.ancillas {
		lattice.SortCoords(st.ancillas[id])
	}
	return st
}

// quantizeMultiplier snaps an estimated rate multiplier onto the
// power-of-two ladder (2, 4, 8, ...). Raw estimates vary continuously with
// window noise; quantizing them keeps the set of distinct reweighted
// decode models small, so the DEM cache amortizes their construction the
// same way it amortizes the nominal models.
func quantizeMultiplier(m float64) float64 {
	if m < 2 {
		return 2
	}
	return math.Exp2(math.Round(math.Log2(m)))
}

// reweightOverlay computes the estimated-prior site overlay from the
// detector's current window state: every sustained elevated observable is
// inverted to a site-rate estimate and severity-routed against the ladder.
// An elevation classified SeverityRemove under a ladder whose deformation
// tier is enabled is excluded only once its firing rate has crossed the
// flag threshold *and* the flag path is live (flagActive — not suppressed
// by the post-deformation dwell): at that point the flag→attribute→Step
// path owns it and will remove its region (taking its checks out of the
// DEM, and so out of future overlays, automatically). A severe elevation
// the flag path cannot act on — firing below the flag threshold, or a new
// burst landing during another event's dwell — stays in the overlay as an
// interim prior: excluding it would leave it mitigated by neither tier,
// making the full ladder strictly worse than its own reweight-only
// ablation in exactly the multi-event regimes it exists for.
//
// The surviving estimates are then *localized* by multiplicity voting,
// exactly like the removal path's region estimator: a drifted data qubit
// elevates every check covering it, so a data site enters the overlay
// only when at least two elevated checks agree on it; an elevated check
// with no voting partner attributes its elevation to its own ancilla (the
// signature of measurement-side drift). Blanketing every elevated check's
// full support instead smears the estimated rate over ~8 healthy sites
// per drifted qubit and makes the reweighted prior *worse* than the
// nominal one. Returns nil when nothing qualifies.
func reweightOverlay(w *detect.Window, st *obsStats, mit deform.Mitigation, p, minFactor, flagThreshold float64, flagActive bool) map[lattice.Coord]float64 {
	ests := w.EstimateRates(p, func(o int32) float64 { return st.baseline[o] }, minFactor, reweightMinFirings)
	type elevation struct {
		obs  int32
		rate float64
	}
	var kept []elevation
	counts := map[lattice.Coord]int{}
	rates := map[lattice.Coord]float64{}
	for _, est := range ests {
		rate := p * quantizeMultiplier(est.Multiplier)
		if rate > decoder.MaxEdgeProb {
			rate = decoder.MaxEdgeProb
		}
		if mit.Route(rate) == defect.SeverityRemove && mit.Handles(defect.SeverityRemove) &&
			flagActive && est.FireRate >= flagThreshold {
			continue // severe and actionable by the flag path: removal owns it
		}
		kept = append(kept, elevation{obs: est.Observable, rate: rate})
		// A site's true rate is bounded by *every* covering check's
		// aggregate elevation, so a voted site takes the minimum — each
		// check's estimate also absorbs its other drifted neighbours, and
		// the max would systematically overshoot in dense-drift regimes.
		for _, q := range st.support[est.Observable] {
			counts[q]++
			if r, ok := rates[q]; !ok || rate < r {
				rates[q] = rate
			}
		}
	}
	var overlay map[lattice.Coord]float64
	add := func(q lattice.Coord, rate float64) {
		if overlay == nil {
			overlay = map[lattice.Coord]float64{}
		}
		if rate > overlay[q] {
			overlay[q] = rate
		}
	}
	for _, e := range kept {
		voted := false
		for _, q := range st.support[e.obs] {
			if counts[q] >= 2 {
				add(q, rates[q])
				voted = true
			}
		}
		if !voted {
			for _, q := range st.ancillas[e.obs] {
				add(q, e.rate)
			}
		}
	}
	return overlay
}

// overlayError is the estimated-vs-true prior error of one chunk: the mean
// absolute difference between the estimated site rate and the true active
// rate over the union of estimated and truly elevated sites (restricted to
// sites of the current code; a site absent from one side carries the
// nominal rate there). Summation runs in sorted site order so the float
// accumulation is deterministic.
func overlayError(overlay, truth map[lattice.Coord]float64, onCode map[lattice.Coord]bool, p float64) float64 {
	union := make([]lattice.Coord, 0, len(overlay)+len(truth))
	for q := range overlay {
		union = append(union, q)
	}
	for q := range truth {
		if _, ok := overlay[q]; !ok && onCode[q] {
			union = append(union, q)
		}
	}
	if len(union) == 0 {
		return 0
	}
	lattice.SortCoords(union)
	sum := 0.0
	for _, q := range union {
		est, ok := overlay[q]
		if !ok {
			est = p
		}
		tr, ok := truth[q]
		if !ok {
			tr = p
		}
		sum += math.Abs(est - tr)
	}
	return sum / float64(len(union))
}

// accrueReweight folds one chunk's prior bookkeeping into the result:
// cycles decoded under an estimated-prior overlay accrue ReweightedCycles
// and the cycle-weighted estimated-vs-true error; cycles decoded with the
// nominal prior while true elevations were live on the code accrue
// MismatchCycles.
func accrueReweight(res *Result, elapsed int64, overlay, rates map[lattice.Coord]float64, onCode map[lattice.Coord]bool, p float64) {
	if len(overlay) > 0 {
		res.ReweightedCycles += elapsed
		res.RateErrCycles += overlayError(overlay, rates, onCode, p) * float64(elapsed)
		return
	}
	if activeOnCode(rates, onCode) {
		res.MismatchCycles += elapsed
	}
}

// activeOnCode reports whether any true rate override touches a site of
// the current code — the condition under which decoding with nominal
// priors is a prior mismatch (rates confined to removed sites no longer
// reach the circuit).
func activeOnCode(rates map[lattice.Coord]float64, onCode map[lattice.Coord]bool) bool {
	for q := range rates {
		if onCode[q] {
			return true
		}
	}
	return false
}

// siteSet is the membership view of a code's physical sites.
func siteSet(c *code.Code) map[lattice.Coord]bool {
	set := map[lattice.Coord]bool{}
	for _, q := range c.DataQubits() {
		set[q] = true
	}
	for _, q := range c.SyndromeQubits() {
		set[q] = true
	}
	return set
}
