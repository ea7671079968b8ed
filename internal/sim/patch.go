package sim

import (
	"time"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
)

// DEM patch metrics, the fast-path counterpart of sim.dem.builds: every
// successful Patcher.Patch counts here with its wall-clock cost.
var (
	obsDEMPatches = obs.Default().Counter("sim.dem.patches")
	obsDEMPatchNs = obs.Default().Histogram("sim.dem.patch_ns")
)

// Contribution kinds. Each recorded contribution re-evaluates to exactly
// the probability addMech folded during the original build:
//
//	contribMeasReset → model.RateM(coords[a])
//	contribCX        → model.Rate2(coords[a], coords[b]) / 15
//	contribCorr      → model.PCorrelated / 2
//	contribIdle      → model.Rate1(coords[a]) / 3
const (
	contribMeasReset uint8 = iota
	contribCX
	contribCorr
	contribIdle
)

// planContrib is one elementary fault contribution to a merged mechanism,
// in the order addMech folded it.
type planContrib struct {
	a, b int32
	kind uint8
}

// planCore is the immutable, model-independent part of a contribution plan.
// It is shared by every DEM patched from the same base build, which lets
// consumers (decoder.GraphFrom) recognize structural identity by pointer: two DEMs with the same core have identical NumDets, identical
// Mechs[i].Dets/Obs for every i, and differ only in probabilities.
type planCore struct {
	coords []lattice.Coord
	qIdx   map[lattice.Coord]int32

	// contribs, CSR-indexed by mechOff, lists each mechanism's
	// contributions in original fold order.
	mechOff  []int32
	contribs []planContrib

	// siteMechs, CSR-indexed by siteOff per dense qubit index, lists the
	// mechanisms whose probability depends on that site's rate.
	siteOff   []int32
	siteMechs []int32
}

// demPlan ties a core to the model whose rates produced the DEM's
// probabilities, and to the interned ID of the code the plan was enumerated
// for.
type demPlan struct {
	core *planCore
	base *noise.Model
	// codeID is the code portion of the DEM cache key (code.Code.ID), the
	// same-code gate of Patcher.Variant.
	codeID uint64
}

// buildSiteIndex derives the site → mechanisms CSR from the contribution
// lists (two passes; per-mechanism duplicates collapse because each
// mechanism's contributions are visited consecutively).
func (pc *planCore) buildSiteIndex() {
	nq := len(pc.coords)
	nm := len(pc.mechOff) - 1
	forEachSite := func(visit func(mi, q int32)) {
		for mi := 0; mi < nm; mi++ {
			for ci := pc.mechOff[mi]; ci < pc.mechOff[mi+1]; ci++ {
				c := pc.contribs[ci]
				switch c.kind {
				case contribMeasReset, contribIdle:
					visit(int32(mi), c.a)
				case contribCX:
					visit(int32(mi), c.a)
					visit(int32(mi), c.b)
				}
			}
		}
	}
	last := make([]int32, nq)
	for i := range last {
		last[i] = -1
	}
	counts := make([]int32, nq+1)
	forEachSite(func(mi, q int32) {
		if last[q] == mi {
			return
		}
		last[q] = mi
		counts[q+1]++
	})
	for i := 0; i < nq; i++ {
		counts[i+1] += counts[i]
	}
	pc.siteOff = counts
	pc.siteMechs = make([]int32, counts[nq])
	for i := range last {
		last[i] = -1
	}
	cur := make([]int32, nq)
	copy(cur, counts[:nq])
	forEachSite(func(mi, q int32) {
		if last[q] == mi {
			return
		}
		last[q] = mi
		pc.siteMechs[cur[q]] = mi
		cur[q]++
	})
}

// SamePatchCore reports whether two DEMs share mechanism/detector structure
// by construction — i.e. one was patched from the other (or both from a
// common base) and they differ only in mechanism probabilities.
func SamePatchCore(a, b *DEM) bool {
	return a != nil && b != nil && a.plan != nil && b.plan != nil && a.plan.core == b.plan.core
}

// Patcher derives site-rate variants of a plan-carrying DEM without
// re-running the fault enumeration. Scratch persists across calls, so a
// steady-state Patch allocates only the cloned probability vector (plus the
// output DEM header). Not safe for concurrent use; callers keep one per
// goroutine.
type Patcher struct {
	marked   []bool
	affected []int32
	// rates is the target model's SiteRates resolved onto the plan's dense
	// qubit index (planCore.qIdx), rebuilt by every Patch.
	rates []noise.Override
}

// Variant returns the DEM of (c, model, rounds, basis): patched from base
// when base was enumerated for c's exact structure and Patch accepts
// model, built in full otherwise. The caller must pass a base built for the
// same rounds and basis, or nil. The gate compares code IDs because a patch
// re-rates the base's mechanism set, which is the target's only when the
// codes are structurally identical: a bandage (super-stabilizer merge) or
// a removal changes the mechanism set itself. IDs are never reused, so the
// gate can only err towards a full build (a code re-interned after an
// intern table reset). Nothing is cached.
func (pt *Patcher) Variant(base *DEM, c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) (*DEM, error) {
	if base != nil && base.plan != nil && base.plan.codeID == c.ID() {
		if dem, ok := pt.Patch(base, model); ok {
			return dem, nil
		}
	}
	return BuildDEM(c, model, rounds, basis)
}

// Patch returns a DEM equal (value-identical, per the equivalence suite) to
// a fresh BuildDEM of the same circuit under model, derived from base by
// refolding only the mechanisms whose probability depends on a site model
// overrides. It reports false — and the caller must fall back to a full
// build — when base carries no plan or model is not a pure site-rate
// variant of the base model (differing scalar rates, defect sets, or a
// non-positive override, any of which could change the mechanism set
// itself).
//
// The returned DEM shares everything but the probability vector with base:
// detector layout, observable info, each mechanism's Dets slice, and the
// contribution plan (so patched DEMs can themselves serve as patch bases
// and decoder.GraphFrom can re-derive graphs structurally).
func (pt *Patcher) Patch(base *DEM, model *noise.Model) (*DEM, bool) {
	if base == nil || base.plan == nil || model == nil {
		return nil, false
	}
	plan := base.plan
	pb := plan.base
	if model.P1 != pb.P1 || model.P2 != pb.P2 || model.PM != pb.PM ||
		model.PCorrelated != pb.PCorrelated || len(model.Defective) != 0 {
		return nil, false
	}
	core := plan.core
	nm := len(base.Mechs)
	if len(core.mechOff) != nm+1 {
		return nil, false
	}
	start := time.Now()
	if cap(pt.marked) < nm {
		pt.marked = make([]bool, nm)
	}
	pt.marked = pt.marked[:nm]
	pt.affected = pt.affected[:0]
	nq := len(core.coords)
	if cap(pt.rates) < nq {
		pt.rates = make([]noise.Override, nq)
	}
	rates := pt.rates[:nq]
	clear(rates)
	mark := func(qi int32) {
		for _, mi := range core.siteMechs[core.siteOff[qi]:core.siteOff[qi+1]] {
			if !pt.marked[mi] {
				pt.marked[mi] = true
				pt.affected = append(pt.affected, mi)
			}
		}
	}
	// One pass over the target's overrides resolves them onto the dense
	// qubit index, so the refold below reads no map. A mechanism needs
	// refolding when any of its sites changes effective rate between the
	// base's model and the target — overrides added, removed, or
	// re-valued. Sites overridden identically in both models are already
	// folded into the base at the target rate, and sites off the circuit
	// feed no mechanism.
	for q, r := range model.SiteRates {
		if r <= 0 {
			// A non-positive override could erase mechanisms from the
			// enumeration; only a full build knows the resulting set.
			for _, mi := range pt.affected {
				pt.marked[mi] = false
			}
			return nil, false
		}
		qi, ok := core.qIdx[q]
		if !ok {
			continue
		}
		rates[qi] = noise.Override{Rate: r, Set: true}
		if pb.SiteRates[q] != r {
			mark(qi)
		}
	}
	for q, r := range pb.SiteRates {
		if model.SiteRates[q] != r {
			if qi, ok := core.qIdx[q]; ok {
				mark(qi)
			}
		}
	}
	if len(pt.affected) == 0 {
		// No override touches a circuit site: the base DEM already is the
		// answer (its base model and this one agree on every rate used).
		obsDEMPatches.Inc()
		obsDEMPatchNs.Observe(time.Since(start).Nanoseconds())
		return base, true
	}
	mechs := make([]Mechanism, nm)
	copy(mechs, base.Mechs)
	for _, mi := range pt.affected {
		pt.marked[mi] = false
		q := 0.0
		for _, c := range core.contribs[core.mechOff[mi]:core.mechOff[mi+1]] {
			var p float64
			switch c.kind {
			case contribMeasReset:
				p = rates[c.a].Or(model.PM)
			case contribCX:
				p = noise.GateRate(rates[c.a], rates[c.b], model.P2) / 15
			case contribCorr:
				p = model.PCorrelated / 2
			default: // contribIdle
				p = rates[c.a].Or(model.P1) / 3
			}
			q = q + p - 2*q*p
		}
		mechs[mi].P = q
	}
	out := &DEM{
		NumDets:     base.NumDets,
		Mechs:       mechs,
		DetRound:    base.DetRound,
		DetObs:      base.DetObs,
		Observables: base.Observables,
		rawMechs:    base.rawMechs,
		plan:        &demPlan{core: core, base: model, codeID: plan.codeID},
	}
	obsDEMPatches.Inc()
	obsDEMPatchNs.Observe(time.Since(start).Nanoseconds())
	return out, true
}
