package sim

import (
	"slices"
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

// Contribution kinds. A contribution of kind k to a gate on sites a and b
// has probability
//
//	noise.GateRate(over[a], over[b], scalar[k]) / kindShare[k]
//
// under a model's rates (rateTable): a measurement or reset flip at
// RateM, one of the 15 two-qubit Paulis at Rate2/15, one of the correlated
// pair at PCorrelated/2, one idle Pauli at Rate1/3. Single-qubit kinds
// name their site as both a and b, and the correlated pair names a slot no
// override sets, so the one expression rates every kind.
const (
	contribMeasReset uint16 = iota
	contribCX
	contribCorr
	contribIdle
)

// kindShare divides a kind's rate among its Paulis.
var kindShare = [4]float64{contribMeasReset: 1, contribCX: 15, contribCorr: 2, contribIdle: 3}

// planContrib is a run of n equal elementary fault contributions to a
// merged mechanism: the components one fault source gives it, such as the
// Paulis of one CX that share a signature, all of one kind on the same
// sites in the same round.
type planContrib struct {
	a, b  int32 // dense qubit indices (planCore.qIdx)
	n     int32
	round int16
	kind  uint16
}

// planCore is the rate-free fault structure of one (code, rounds, basis,
// correlated) enumeration. It is shared by every DEM folded or patched
// from it — and, through the process-wide structure cache, by every build
// of the same structure key that DEMCache or Patcher.Variant made while
// the key stayed cached — which lets consumers (decoder.GraphFrom)
// recognize structural identity by pointer: two DEMs with the same core
// have identical NumDets, identical Mechs, and differ only in P.
type planCore struct {
	coords []lattice.Coord
	qIdx   map[lattice.Coord]int32
	// correlated reports whether the correlated pair was enumerated.
	correlated bool

	// contribs, CSR-indexed by mechOff, lists each mechanism's
	// contributions in fold order, one entry per run of equal ones.
	mechOff  []int32
	contribs []planContrib

	// siteMechs, CSR-indexed by siteOff per dense qubit index, lists the
	// mechanisms whose probability depends on that site's rate.
	siteOff   []int32
	siteMechs []int32
}

// demPlan ties a core to the model whose fold produced the DEM's
// probabilities, and to the fingerprint of the code the core was
// enumerated for.
type demPlan struct {
	core *planCore
	base *noise.Model
	// code is the code's fingerprint (code.Code.Fingerprint), the code half
	// of the DEM cache key and the same-code gate of Patcher.Variant.
	code string
}

// rateTable holds noise models resolved onto a core's dense qubit index,
// one block per model. Block k holds the overrides over[k*n:(k+1)*n] of the
// n = len(coords)+1 slots — each site's, then one that no override sets,
// for the correlated pair — and each contribution kind's scalar rate at
// scalar[4k:4k+4]. The correlated scalar is PCorrelated only where it is
// positive, the condition under which a build enumerates the pair. Every
// rate is clamped at 0, so a contribution of a non-positive rate folds as
// 0 (DEM.fold). A single-model fold reads block 0; a phased fold re-points
// each contribution at its phase's block (build).
type rateTable struct {
	over   []noise.Override
	scalar []float64
}

// resolve appends m's rates on pc's sites to t as one more block.
func (pc *planCore) resolve(t *rateTable, m *noise.Model) {
	n, start := len(pc.coords)+1, len(t.over)
	t.over = slices.Grow(t.over, n)[:start+n]
	blk := t.over[start:]
	clear(blk)
	for q, def := range m.Defective {
		if qi, ok := pc.qIdx[q]; ok && def {
			blk[qi] = noise.Override{Rate: max(m.DefectRate, 0), Set: true}
		}
	}
	for _, sr := range m.SiteRates {
		if qi, ok := pc.qIdx[sr.Q]; ok {
			blk[qi] = noise.Override{Rate: max(sr.Rate, 0), Set: true}
		}
	}
	corr := 0.0
	if m.PCorrelated > 0 {
		corr = m.PCorrelated
	}
	t.scalar = append(t.scalar, max(m.PM, 0), max(m.P2, 0), corr, max(m.P1, 0))
}

// fold rates the mechanisms mis of d — every mechanism when mis is nil —
// into d.P from contribs, the plan's contributions or a phased build's
// re-pointed copy of them, under t: a mechanism's probability is the XOR
// fold p ⊕ q = p + q − 2pq, in order, of its contributions'
// probabilities, a run's p rated once and folded once per repeat, so the
// float operations are those of folding each contribution in turn. A zero
// probability leaves q as it is, as long as q is finite — which every fold
// of rates up to 1 keeps it — so folding it equals skipping it, with no
// branch in the loop. A mechanism with no positive probability (rates are
// never negative, so a zero sum) is dropped, and with it the plan, since
// the mechanism list no longer follows the core.
func (d *DEM) fold(mis []int32, contribs []planContrib, t *rateTable) {
	off, over, scalar, ps := d.plan.core.mechOff, t.over, t.scalar, d.P
	n := len(mis)
	if mis == nil {
		n = len(ps)
	}
	var dropped []int32
	for i := 0; i < n; i++ {
		mi := int32(i)
		if mis != nil {
			mi = mis[i]
		}
		q, sum := 0.0, 0.0
		for _, c := range contribs[off[mi]:off[mi+1]] {
			p := noise.GateRate(over[c.a], over[c.b], scalar[c.kind]) / kindShare[c.kind&3]
			for range c.n {
				q = q + p - 2*q*p
			}
			sum += p
		}
		if sum == 0 {
			dropped = append(dropped, mi) // no effect: never a live mechanism
			continue
		}
		ps[mi] = q
	}
	if dropped != nil {
		d.drop(dropped)
	}
}

// drop removes the mechanisms listed in mis, and the plan with them, into
// fresh Mechs and P slices. It never filters in place: a patched DEM's
// Mechs is its base's.
func (d *DEM) drop(mis []int32) {
	slices.Sort(mis)
	n := len(d.Mechs) - len(mis)
	mechs, ps := make([]Mechanism, 0, n), make([]float64, 0, n)
	for i, m := range d.Mechs {
		if len(mis) > 0 && mis[0] == int32(i) {
			mis = mis[1:]
			continue
		}
		mechs, ps = append(mechs, m), append(ps, d.P[i])
	}
	d.Mechs, d.P, d.plan = mechs, ps, nil
}

// buildSiteIndex derives the site → mechanisms CSR from the contribution
// lists in two passes, a count and a fill. A mechanism's contributions are
// visited consecutively, so last[q], the last mechanism listed for site q,
// collapses its duplicates.
func (pc *planCore) buildSiteIndex() {
	nq := len(pc.coords)
	nm := int32(len(pc.mechOff) - 1)
	last := make([]int32, nq)
	for i := range last {
		last[i] = -1
	}
	counts := make([]int32, nq+1)
	for mi := range nm {
		for _, c := range pc.contribs[pc.mechOff[mi]:pc.mechOff[mi+1]] {
			if c.kind == contribCorr {
				continue
			}
			if last[c.a] != mi {
				last[c.a] = mi
				counts[c.a+1]++
			}
			if last[c.b] != mi {
				last[c.b] = mi
				counts[c.b+1]++
			}
		}
	}
	for i := 0; i < nq; i++ {
		counts[i+1] += counts[i]
	}
	pc.siteOff = counts
	pc.siteMechs = make([]int32, counts[nq])
	for i := range last {
		last[i] = -1
	}
	cur := slices.Clone(counts[:nq])
	for mi := range nm {
		for _, c := range pc.contribs[pc.mechOff[mi]:pc.mechOff[mi+1]] {
			if c.kind == contribCorr {
				continue
			}
			if last[c.a] != mi {
				last[c.a] = mi
				pc.siteMechs[cur[c.a]] = mi
				cur[c.a]++
			}
			if last[c.b] != mi {
				last[c.b] = mi
				pc.siteMechs[cur[c.b]] = mi
				cur[c.b]++
			}
		}
	}
}

// SamePatchCore reports whether two DEMs share mechanism/detector structure
// by construction and differ only in mechanism probabilities: one was
// patched from the other, both from a common base, or both were folded
// from one cached structure (independent DEMCache or Patcher.Variant
// builds of one structure key share its core, so decoder.GraphFrom may
// refold between them).
func SamePatchCore(a, b *DEM) bool {
	return a != nil && b != nil && a.plan != nil && b.plan != nil && a.plan.core == b.plan.core
}

// Patcher derives variants of a plan-carrying DEM by refolding its plan
// instead of re-running the fault enumeration. Scratch persists across
// calls, so a steady-state Patch allocates only the copied probability
// vector (plus the output DEM and plan headers). Not safe for concurrent
// use; callers keep one per goroutine.
type Patcher struct {
	marked   []bool
	affected []int32
	// from and to are the base's and the target's models resolved onto
	// the plan's sites, rebuilt by every Patch.
	from, to rateTable
}

// Variant returns the DEM of (c, model, rounds, basis): patched from base
// when base was enumerated for c's exact structure and Patch accepts
// model, built in full otherwise. The caller must pass a base built for the
// same rounds and basis, or nil. The gate compares code fingerprints
// because a patch re-rates the base's mechanism set, which is the target's
// only when the codes are structurally identical: a bandage
// (super-stabilizer merge) or a removal changes the mechanism set itself,
// while a code rebuilt as a separate object with the same fingerprint
// (a recovery back to an earlier shape) patches. A full build takes its
// fault structure from the process-wide structure cache, so it folds
// without enumerating when the structure is cached; no DEM is cached.
func (pt *Patcher) Variant(base *DEM, c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) (*DEM, error) {
	if base != nil && base.plan != nil && base.plan.code == c.Fingerprint() {
		if dem, ok := pt.Patch(base, model); ok {
			return dem, nil
		}
	}
	return buildCached(c, model, rounds, basis)
}

// Patch returns a DEM equal (value-identical, per the equivalence suite) to
// a fresh BuildDEM of the same circuit under model, refolded over base's
// plan without enumerating. Both base's model and model are resolved onto
// the plan's sites (SiteRates over Defective). When their scalar rates
// agree, only the mechanisms of sites whose resolved override differs — in
// value or in presence — are refolded, and base itself is the answer when
// none does; otherwise every mechanism is refolded. It reports false — the
// caller must build in full — only when base carries no plan, or when
// model rates the correlated pair on a structure enumerated without it.
//
// The returned DEM owns its probability vector P, a copy of base's with
// the refolded mechanisms rewritten, and shares everything else with base:
// detector layout, observable info, the mechanism list Mechs, and —
// unless the fold dropped a mechanism, which gives the DEM fresh Mechs and
// P — the plan core, so patched DEMs can themselves serve as patch bases
// and decoder.GraphFrom can re-derive graphs structurally.
func (pt *Patcher) Patch(base *DEM, model *noise.Model) (*DEM, bool) {
	if base == nil || base.plan == nil || model == nil {
		return nil, false
	}
	plan := base.plan
	core := plan.core
	if model.PCorrelated > 0 && !core.correlated {
		return nil, false
	}
	start := time.Now()
	pt.from = rateTable{over: pt.from.over[:0], scalar: pt.from.scalar[:0]}
	pt.to = rateTable{over: pt.to.over[:0], scalar: pt.to.scalar[:0]}
	core.resolve(&pt.from, plan.base)
	core.resolve(&pt.to, model)
	var mis []int32 // nil: every mechanism
	if slices.Equal(pt.from.scalar, pt.to.scalar) {
		nm := len(base.P)
		if cap(pt.marked) < nm {
			pt.marked = make([]bool, nm)
		}
		marked := pt.marked[:nm]
		mis = pt.affected[:0]
		for qi, o := range pt.to.over[:len(core.coords)] {
			if o == pt.from.over[qi] {
				continue
			}
			for _, mi := range core.siteMechs[core.siteOff[qi]:core.siteOff[qi+1]] {
				if !marked[mi] {
					marked[mi] = true
					mis = append(mis, mi)
				}
			}
		}
		for _, mi := range mis {
			marked[mi] = false
		}
		pt.affected = mis
		if len(mis) == 0 {
			// No resolved rate changed: the base DEM already is the answer.
			obsDEMPatches.Inc()
			obsDEMPatchNs.Observe(time.Since(start).Nanoseconds())
			return base, true
		}
	}
	out := &DEM{
		NumDets:     base.NumDets,
		Mechs:       base.Mechs,
		P:           slices.Clone(base.P),
		DetRound:    base.DetRound,
		DetObs:      base.DetObs,
		Observables: base.Observables,
		plan:        &demPlan{core: core, base: model, code: plan.code},
	}
	out.fold(mis, core.contribs, &pt.to)
	obsDEMPatches.Inc()
	obsDEMPatchNs.Observe(time.Since(start).Nanoseconds())
	return out, true
}
