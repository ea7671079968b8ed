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
	"slices"

	"surfdeformer/internal/code"
	"surfdeformer/internal/decoder"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/detect"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
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

// obsStats is the per-DEM view the rate estimator needs, over the DEM's
// stable observable ids in ascending order: each id's nominal per-round
// firing probability (the baseline elevation is measured against), its
// data support, and its ancillas — kept apart because the overlay
// localizes drift by voting across supports and falls back to the ancilla
// only when voting fails. Supports and ancillas are sorted, each site
// once.
type obsStats struct {
	ids      []int32
	baseline []float64
	support  [][]lattice.Coord
	ancillas [][]lattice.Coord
}

// index returns the position of id in st.ids.
func (st *obsStats) index(id int32) (int, bool) {
	return slices.BinarySearch(st.ids, id)
}

// baselineOf is id's nominal firing probability, 0 for an id the DEM
// lacks (EstimateRates skips it).
func (st *obsStats) baselineOf(id int32) float64 {
	if i, ok := st.index(id); ok {
		return st.baseline[i]
	}
	return 0
}

func newObsStats(dem *sim.DEM) *obsStats {
	ids := make([]int32, len(dem.Observables))
	for oi, info := range dem.Observables {
		ids[oi] = stableID(info)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	st := &obsStats{ids: ids, baseline: make([]float64, len(ids)),
		support: make([][]lattice.Coord, len(ids)), ancillas: make([][]lattice.Coord, len(ids))}
	// Observables sharing an id pool their supports and ancillas.
	slot := make([]int, len(dem.Observables)) // observable → position in ids
	for oi, info := range dem.Observables {
		i, _ := st.index(stableID(info))
		slot[oi] = i
		st.support[i] = append(st.support[i], info.Support...)
		st.ancillas[i] = append(st.ancillas[i], info.Ancillas...)
	}
	for i := range ids {
		lattice.SortCoords(st.support[i])
		st.support[i] = slices.Compact(st.support[i])
		lattice.SortCoords(st.ancillas[i])
		st.ancillas[i] = slices.Compact(st.ancillas[i])
	}
	// Each id's baseline is the mean fire rate of its detectors, summed in
	// detector order.
	counts := make([]int, len(ids))
	for det, f := range dem.DetectorFireRates() {
		i := slot[dem.DetObs[det]]
		st.baseline[i] += f
		counts[i]++
	}
	for i, n := range counts {
		if n > 0 {
			st.baseline[i] /= float64(n)
		}
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
// nominal one.
//
// The overlay is a sorted site-rate vector, max-wins per site, written
// into dst[:0]; it is empty when nothing qualifies. The votes live in sc,
// so a steady-state call allocates only the estimator's result.
func reweightOverlay(w *detect.Window, st *obsStats, mit deform.Mitigation, p, minFactor, flagThreshold float64, flagActive bool, sc *overlayScratch, dst []noise.SiteRate) []noise.SiteRate {
	ests := w.EstimateRates(p, st.baselineOf, minFactor, reweightMinFirings)
	sc.kept, sc.votes = sc.kept[:0], sc.votes[:0]
	for _, est := range ests {
		rate := p * quantizeMultiplier(est.Multiplier)
		if rate > decoder.MaxEdgeProb {
			rate = decoder.MaxEdgeProb
		}
		if mit.Route(rate) == defect.SeverityRemove && mit.Handles(defect.SeverityRemove) &&
			flagActive && est.FireRate >= flagThreshold {
			continue // severe and actionable by the flag path: removal owns it
		}
		// An estimate exists only where the baseline is positive, so its
		// observable is one of st's.
		i, _ := st.index(est.Observable)
		sc.kept = append(sc.kept, elevation{stat: i, rate: rate, votes: len(sc.votes)})
		for _, q := range st.support[i] {
			sc.votes = append(sc.votes, siteVote{q: q, pos: len(sc.votes), rate: rate})
		}
	}
	// Tally the votes per site: sorted by site, each run of one site gets
	// its count and the least of its rates, written back to every vote of
	// the run by its position. A site's true rate is bounded by *every*
	// covering check's aggregate elevation, so a voted site takes the
	// minimum — each check's estimate also absorbs its other drifted
	// neighbours, and the max would systematically overshoot in
	// dense-drift regimes.
	votes := sc.votes
	sc.tally = slices.Grow(sc.tally[:0], len(votes))[:len(votes)]
	slices.SortFunc(votes, func(a, b siteVote) int { return a.q.Compare(b.q) })
	for lo := 0; lo < len(votes); {
		hi, rate := lo+1, votes[lo].rate
		for ; hi < len(votes) && votes[hi].q == votes[lo].q; hi++ {
			rate = min(rate, votes[hi].rate)
		}
		for _, v := range votes[lo:hi] {
			sc.tally[v.pos] = siteTally{n: hi - lo, rate: rate}
		}
		lo = hi
	}
	out := dst[:0]
	for _, e := range sc.kept {
		voted := false
		for k, q := range st.support[e.stat] {
			if t := sc.tally[e.votes+k]; t.n >= 2 {
				out = append(out, noise.SiteRate{Q: q, Rate: t.rate})
				voted = true
			}
		}
		if !voted {
			for _, q := range st.ancillas[e.stat] {
				out = append(out, noise.SiteRate{Q: q, Rate: e.rate})
			}
		}
	}
	// A site several elevations name takes the largest of their rates.
	return noise.CompactRates(out)
}

// overlayScratch is reweightOverlay's per-patch working storage.
type overlayScratch struct {
	kept  []elevation
	votes []siteVote
	tally []siteTally
}

// elevation is one estimate the overlay keeps: its observable's position
// in obsStats, its quantized site rate, and the position of its first
// support site's vote.
type elevation struct {
	stat  int
	rate  float64
	votes int
}

// siteVote is one kept elevation's vote for a support site, at position
// pos of the votes in the order they were cast.
type siteVote struct {
	q    lattice.Coord
	pos  int
	rate float64
}

// siteTally is the tally of a vote's site: how many kept elevations cover
// it and the least of their rates.
type siteTally struct {
	n    int
	rate float64
}

// overlayError is the estimated-vs-true prior error of one chunk: the mean
// absolute difference between the estimated site rate and the true active
// rate over the union of estimated and truly elevated sites (restricted to
// sites of the current code, onCode, sorted; a site absent from one side
// carries the nominal rate there). The three sorted vectors merge in one
// pass, so the summation runs in site order and the float accumulation is
// deterministic.
func overlayError(overlay, truth []noise.SiteRate, onCode []lattice.Coord, p float64) float64 {
	sum, n := 0.0, 0
	i, j, k := 0, 0, 0
	for i < len(overlay) || j < len(truth) {
		c := -1
		switch {
		case i == len(overlay):
			c = 1
		case j < len(truth):
			c = overlay[i].Q.Compare(truth[j].Q)
		}
		switch {
		case c < 0:
			sum += math.Abs(overlay[i].Rate - p)
			i++
		case c > 0:
			q := truth[j].Q
			for k < len(onCode) && onCode[k].Less(q) {
				k++
			}
			j++
			if k == len(onCode) || onCode[k] != q {
				continue
			}
			sum += math.Abs(p - truth[j-1].Rate)
		default:
			sum += math.Abs(overlay[i].Rate - truth[j].Rate)
			i++
			j++
		}
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// accrueReweight folds one chunk's prior bookkeeping into the result:
// cycles decoded under an estimated-prior overlay accrue ReweightedCycles
// and the cycle-weighted estimated-vs-true error; cycles decoded with the
// nominal prior while true elevations were live on the code accrue
// MismatchCycles.
func accrueReweight(res *Result, elapsed int64, overlay, rates []noise.SiteRate, onCode []lattice.Coord, p float64) {
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
// the current code (both sorted) — the condition under which decoding with
// nominal priors is a prior mismatch (rates confined to removed sites no
// longer reach the circuit).
func activeOnCode(rates []noise.SiteRate, onCode []lattice.Coord) bool {
	k := 0
	for _, sr := range rates {
		for k < len(onCode) && onCode[k].Less(sr.Q) {
			k++
		}
		if k == len(onCode) {
			return false
		}
		if onCode[k] == sr.Q {
			return true
		}
	}
	return false
}

// codeSites is the sorted list of a code's physical sites: its data and
// syndrome qubits.
func codeSites(c *code.Code) []lattice.Coord {
	sites := append(c.DataQubits(), c.SyndromeQubits()...)
	lattice.SortCoords(sites)
	return slices.Compact(sites)
}
