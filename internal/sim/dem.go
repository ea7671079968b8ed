// Package sim builds detector error models (DEMs) for memory experiments on
// (possibly deformed) surface codes and samples them efficiently.
//
// The approach mirrors Stim's: the syndrome-extraction circuit is
// materialized once, every elementary fault location is propagated through
// the Clifford circuit as a Pauli frame, and the resulting set of flipped
// detectors (parity comparisons that are deterministic in the noiseless
// circuit) plus the logical-observable flip is recorded as a mechanism.
// Identical mechanisms are merged. Sampling then draws each mechanism as an
// independent Bernoulli event and XORs signatures — orders of magnitude
// faster than stepping the circuit per shot.
package sim

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"surfdeformer/internal/circuit"
	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
)

// DEM construction metrics: every build (cached or not upstream) counts
// here with its wall-clock cost. Build time is observation-only and never
// flows into results.
var (
	obsDEMBuilds  = obs.Default().Counter("sim.dem.builds")
	obsDEMBuildNs = obs.Default().Histogram("sim.dem.build_ns")
)

// Mechanism is one independent error source: with probability P it flips
// the listed detectors and, if Obs, the logical observable.
type Mechanism struct {
	P    float64
	Dets []int32 // sorted detector IDs
	Obs  bool
}

// DEM is a detector error model for one memory experiment.
type DEM struct {
	NumDets int
	Mechs   []Mechanism

	// DetRound and DetObs give, per detector, the round of its later
	// measurement and the observable (schedule index) it tracks — used by
	// decoders for diagnostics and by tests.
	DetRound []int32
	DetObs   []int32

	// Observables maps DetObs indices back to hardware locations; the
	// defect detector uses it to turn flagged observables into regions.
	Observables []ObsInfo

	// Decomposed counts mechanisms whose signature touched more than two
	// detectors and had to be split for the matching decoder.
	rawMechs int

	// plan, when non-nil, records how each mechanism's probability was
	// folded from elementary fault contributions, enabling Patcher.Patch to
	// derive site-rate variants of this DEM without re-running the fault
	// enumeration (see patch.go). Recorded only for builds whose model can
	// serve as a patch base.
	plan *demPlan
}

// RawMechanisms returns the number of fault components enumerated before
// merging.
func (d *DEM) RawMechanisms() int { return d.rawMechs }

// DetectorFireRates returns each detector's marginal firing probability
// under the DEM: mechanisms fire independently, so detector d fires with
// probability ½(1 − ∏_{m∋d}(1 − 2·P_m)) — the XOR of independent Bernoulli
// draws. The defect detector's rate estimator uses these as the nominal
// baselines it measures elevation against (detect.EstimateRates).
func (d *DEM) DetectorFireRates() []float64 {
	rates := make([]float64, d.NumDets)
	for i := range rates {
		rates[i] = 1
	}
	for _, m := range d.Mechs {
		f := 1 - 2*m.P
		for _, det := range m.Dets {
			rates[det] *= f
		}
	}
	for i, prod := range rates {
		rates[i] = 0.5 * (1 - prod)
	}
	return rates
}

// op kinds of the flattened circuit.
type opKind uint8

const (
	opReset opKind = iota
	opCX
	opMeas
)

type flatOp struct {
	kind  opKind
	basis lattice.CheckType
	a, b  int32 // qubit indices; b used by CX only
	rec   int32 // record index for opMeas
	round int16 // round the op belongs to (for phased noise models)
}

// ObsInfo describes one tracked observable for consumers that correlate
// detection events back to hardware locations (the defect detector).
type ObsInfo struct {
	Type     lattice.CheckType
	Support  []lattice.Coord
	Ancillas []lattice.Coord
}

// mergedMech accumulates one signature's merged probability during fault
// enumeration, along with the sorted detector list (kept so emission never
// re-parses the key) and, for patch-base builds, the ordered elementary
// contributions whose XOR-composition produced the probability.
type mergedMech struct {
	p        float64
	dets     []int32
	obs      bool
	contribs []planContrib
}

// BuildDEM constructs the detector error model of a memory experiment in
// the given basis (lattice.ZCheck = memory-Z protecting the logical Z,
// exercising Z-type detectors against X errors) over the given number of
// syndrome-extraction rounds.
func BuildDEM(c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) (*DEM, error) {
	return buildDEM(c, func(int) *noise.Model { return model }, rounds, basis, patchableBase(model))
}

// patchableBase reports whether a constant-model build from m can serve as
// a patch base, returning m itself when it can. A base must carry no
// per-site overrides (so every enumerated contribution evaluates to one of
// the positive scalar rates, and any site-rate variant can only re-weight —
// never create or erase — contributions) and strictly positive scalar rates
// (so the recorded contribution set is exactly the positive-probability
// set under every such variant).
func patchableBase(m *noise.Model) *noise.Model {
	if len(m.SiteRates) == 0 && len(m.Defective) == 0 && m.P1 > 0 && m.P2 > 0 && m.PM > 0 {
		return m
	}
	return nil
}

// buildDEM is the shared implementation; modelAt selects the noise model of
// each round (constant for BuildDEM, phase-dependent for BuildPhasedDEM).
// When record is non-nil the build additionally records the per-mechanism
// contribution plan keyed to that base model (patch.go); phased builds pass
// nil — their rates are round-dependent and cannot be replayed from a
// single model.
func buildDEM(c *code.Code, modelAt func(int) *noise.Model, rounds int, basis lattice.CheckType, record *noise.Model) (*DEM, error) {
	if rounds < 2 {
		return nil, fmt.Errorf("sim: need at least 2 rounds, got %d", rounds)
	}
	start := time.Now()
	defer func() {
		obsDEMBuilds.Inc()
		obsDEMBuildNs.Observe(time.Since(start).Nanoseconds())
	}()
	sched, err := circuit.NewSchedule(c)
	if err != nil {
		return nil, err
	}

	// Dense qubit indexing: data qubits first, then ancillas.
	dataQubits := c.DataQubits()
	qIdx := map[lattice.Coord]int32{}
	var coords []lattice.Coord
	for _, q := range dataQubits {
		qIdx[q] = int32(len(coords))
		coords = append(coords, q)
	}
	for _, op := range sched.Ops {
		if op.Direct {
			continue
		}
		if _, ok := qIdx[op.Ancilla]; !ok {
			qIdx[op.Ancilla] = int32(len(coords))
			coords = append(coords, op.Ancilla)
		}
	}

	// Materialize the flat circuit.
	var ops []flatOp
	nRec := int32(0)
	recOf := make(map[[2]int]int32) // (round, slot) -> record
	// Data initialization in the memory basis (reset noise applies).
	for _, q := range dataQubits {
		ops = append(ops, flatOp{kind: opReset, basis: basis, a: qIdx[q], round: 0})
	}
	roundStart := make([]int, rounds)
	for r := 0; r < rounds; r++ {
		roundStart[r] = len(ops)
		var live []circuit.MeasuredOp
		for _, m := range sched.Ops {
			if m.MeasuredThisRound(r) {
				live = append(live, m)
			}
		}
		for _, m := range live {
			if m.Direct {
				continue
			}
			ops = append(ops, flatOp{kind: opReset, basis: m.Basis, a: qIdx[m.Ancilla], round: int16(r)})
		}
		maxSteps := 0
		for _, m := range live {
			if !m.Direct && len(m.Data) > maxSteps {
				maxSteps = len(m.Data)
			}
		}
		for t := 0; t < maxSteps; t++ {
			for _, m := range live {
				if m.Direct || t >= len(m.Data) {
					continue
				}
				anc, dat := qIdx[m.Ancilla], qIdx[m.Data[t]]
				if m.Basis == lattice.XCheck {
					ops = append(ops, flatOp{kind: opCX, a: anc, b: dat, round: int16(r)}) // anc controls
				} else {
					ops = append(ops, flatOp{kind: opCX, a: dat, b: anc, round: int16(r)}) // data controls
				}
			}
		}
		for _, m := range live {
			rec := nRec
			nRec++
			recOf[[2]int{r, m.Slot}] = rec
			target := m.Ancilla
			if m.Direct {
				target = m.Data[0]
			}
			ops = append(ops, flatOp{kind: opMeas, basis: m.Basis, a: qIdx[target], rec: rec, round: int16(r)})
		}
	}
	// Transversal readout of all data qubits in the memory basis.
	readoutRec := make(map[lattice.Coord]int32, len(dataQubits))
	for _, q := range dataQubits {
		rec := nRec
		nRec++
		readoutRec[q] = rec
		ops = append(ops, flatOp{kind: opMeas, basis: basis, a: qIdx[q], rec: rec, round: int16(rounds - 1)})
	}

	// Detector layout. Each record participates in at most two detectors.
	dem := &DEM{}
	recDets := make([][]int32, nRec)
	addDet := func(round int, obsIdx int, recs ...int32) {
		id := int32(dem.NumDets)
		dem.NumDets++
		dem.DetRound = append(dem.DetRound, int32(round))
		dem.DetObs = append(dem.DetObs, int32(obsIdx))
		for _, r := range recs {
			recDets[r] = append(recDets[r], id)
		}
	}
	for _, obs := range sched.Observables {
		info := ObsInfo{Type: obs.Type, Support: obs.Support}
		for _, slot := range obs.Slots {
			info.Ancillas = append(info.Ancillas, sched.Ops[slot].Ancilla)
		}
		dem.Observables = append(dem.Observables, info)
	}
	for oi, obs := range sched.Observables {
		if obs.Type != basis {
			continue // opposite-type checks catch the other error species
		}
		var avail []int
		for r := 0; r < rounds; r++ {
			if obs.AvailableThisRound(r) {
				avail = append(avail, r)
			}
		}
		if len(avail) == 0 {
			continue
		}
		valueRecs := func(r int) []int32 {
			var out []int32
			for _, slot := range obs.Slots {
				out = append(out, recOf[[2]int{r, slot}])
			}
			return out
		}
		// Initial detector: first value vs the deterministic init.
		addDet(avail[0], oi, valueRecs(avail[0])...)
		// Consecutive comparisons.
		for i := 1; i < len(avail); i++ {
			recs := append(valueRecs(avail[i-1]), valueRecs(avail[i])...)
			addDet(avail[i], oi, recs...)
		}
		// Final detector: reconstruction from data readout vs last value.
		last := valueRecs(avail[len(avail)-1])
		for _, q := range obs.Support {
			last = append(last, readoutRec[q])
		}
		addDet(rounds, oi, last...)
	}

	// Logical observable: readout parity over the logical support.
	logical := c.LogicalZ()
	if basis == lattice.XCheck {
		logical = c.LogicalX()
	}
	obsRec := make([]bool, nRec)
	for _, q := range logical.Support() {
		rec, ok := readoutRec[q]
		if !ok {
			return nil, fmt.Errorf("sim: logical support qubit %v missing from readout", q)
		}
		obsRec[rec] = true
	}

	// Fault enumeration. Signatures key on the sorted detector list plus the
	// observable flag, serialized as "<det>,<det>,...,\x00<obs>" — the NUL
	// separator sorts below every digit, so lexicographic key order
	// reproduces the (dets string, obs) emission order exactly, which fixes
	// the Mechs order the samplers' draw streams depend on.
	merged := map[string]*mergedMech{}
	var keyBuf []byte
	addMech := func(p float64, dets []int32, obs bool, contrib planContrib) {
		if p <= 0 || (len(dets) == 0 && !obs) {
			return
		}
		dem.rawMechs++
		slices.Sort(dets)
		keyBuf = keyBuf[:0]
		for _, d := range dets {
			keyBuf = strconv.AppendInt(keyBuf, int64(d), 10)
			keyBuf = append(keyBuf, ',')
		}
		keyBuf = append(keyBuf, 0)
		if obs {
			keyBuf = append(keyBuf, 1)
		} else {
			keyBuf = append(keyBuf, 0)
		}
		m, ok := merged[string(keyBuf)]
		if !ok {
			m = &mergedMech{dets: append([]int32(nil), dets...), obs: obs}
			merged[string(keyBuf)] = m
		}
		m.p = m.p + p - 2*m.p*p
		if record != nil {
			m.contribs = append(m.contribs, contrib)
		}
	}

	// propagate seeds a single-qubit Pauli frame right after op index start
	// and returns the flipped detectors (sorted) and the observable flip.
	// Scratch is dense: a per-qubit frame array with a touched list and a
	// live-frame counter (the enumeration calls this thousands of times per
	// build, and the former map-based scratch dominated build time).
	frame := make([]uint8, len(coords))
	touchedQ := make([]int32, 0, len(coords))
	live := 0
	setQ := func(q int32, v uint8) {
		old := frame[q]
		if old == v {
			return
		}
		if old == 0 {
			live++
			touchedQ = append(touchedQ, q)
		} else if v == 0 {
			live--
		}
		frame[q] = v
	}
	detCnt := make([]int32, dem.NumDets)
	touchedD := make([]int32, 0, 64)
	propagate := func(start int, seedQ int32, seedV uint8) ([]int32, bool) {
		for _, q := range touchedQ {
			frame[q] = 0
		}
		touchedQ = touchedQ[:0]
		live = 0
		if seedV != 0 {
			setQ(seedQ, seedV)
		}
		obsFlip := false
		for i := start; i < len(ops) && live > 0; i++ {
			op := ops[i]
			switch op.kind {
			case opReset:
				setQ(op.a, 0)
			case opCX:
				fa, fb := frame[op.a], frame[op.b]
				nb := fb ^ (fa & 1) // X propagates control -> target
				na := fa ^ (fb & 2) // Z propagates target -> control
				setQ(op.a, na)
				setQ(op.b, nb)
			case opMeas:
				f := frame[op.a]
				flip := false
				if op.basis == lattice.ZCheck {
					flip = f&1 != 0 // X frame flips a Z measurement
				} else {
					flip = f&2 != 0 // Z frame flips an X measurement
				}
				if flip {
					for _, d := range recDets[op.rec] {
						if detCnt[d] == 0 {
							touchedD = append(touchedD, d)
						}
						detCnt[d]++
					}
					if obsRec[op.rec] {
						obsFlip = !obsFlip
					}
				}
			}
		}
		var dets []int32
		for _, d := range touchedD {
			if detCnt[d]%2 == 1 {
				dets = append(dets, d)
			}
			detCnt[d] = 0
		}
		touchedD = touchedD[:0]
		slices.Sort(dets)
		return dets, obsFlip
	}

	flipRecord := func(rec int32) ([]int32, bool) {
		var dets []int32
		dets = append(dets, recDets[rec]...)
		return dets, obsRec[rec]
	}

	// xorSig is the symmetric difference of two sorted detector lists.
	xorSig := func(a, b []int32, oa, ob bool) ([]int32, bool) {
		var out []int32
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				out = append(out, a[i])
				i++
			case b[j] < a[i]:
				out = append(out, b[j])
				j++
			default:
				i++
				j++
			}
		}
		out = append(out, a[i:]...)
		out = append(out, b[j:]...)
		return out, oa != ob
	}

	for i, op := range ops {
		switch op.kind {
		case opReset:
			// Pauli-X channel on reset: the state flips to the orthogonal
			// basis state (X after |0>, Z after |+>).
			p := modelAt(int(op.round)).RateM(coords[op.a])
			var seed uint8 = 1
			if op.basis == lattice.XCheck {
				seed = 2
			}
			dets, obs := propagate(i+1, op.a, seed)
			addMech(p, dets, obs, planContrib{kind: contribMeasReset, a: op.a})
		case opMeas:
			// Classical measurement flip.
			p := modelAt(int(op.round)).RateM(coords[op.a])
			dets, obs := flipRecord(op.rec)
			addMech(p, dets, obs, planContrib{kind: contribMeasReset, a: op.a})
		case opCX:
			model := modelAt(int(op.round))
			p2 := model.Rate2(coords[op.a], coords[op.b])
			// Propagate the four generator seeds; compose the 15 Paulis.
			type comp struct {
				dets []int32
				obs  bool
			}
			gen := [4]comp{}
			seeds := [4]struct {
				q int32
				v uint8
			}{
				{op.a, 1}, {op.b, 1}, {op.a, 2}, {op.b, 2},
			}
			for gi, sd := range seeds {
				d, o := propagate(i+1, sd.q, sd.v)
				gen[gi] = comp{d, o}
			}
			for mask := 1; mask < 16; mask++ {
				var dets []int32
				obs := false
				for gi := 0; gi < 4; gi++ {
					if mask&(1<<gi) != 0 {
						dets, obs = xorSig(dets, gen[gi].dets, obs, gen[gi].obs)
					}
				}
				addMech(p2/15, dets, obs, planContrib{kind: contribCX, a: op.a, b: op.b})
			}
			if model.PCorrelated > 0 {
				// Correlated X⊗X and Z⊗Z with equal shares.
				dxx, oxx := xorSig(gen[0].dets, gen[1].dets, gen[0].obs, gen[1].obs)
				addMech(model.PCorrelated/2, dxx, oxx, planContrib{kind: contribCorr})
				dzz, ozz := xorSig(gen[2].dets, gen[3].dets, gen[2].obs, gen[3].obs)
				addMech(model.PCorrelated/2, dzz, ozz, planContrib{kind: contribCorr})
			}
		}
	}

	// Idle single-qubit depolarizing on every data qubit once per round
	// (the identity gate while ancillas are measured); this is also where
	// 50%-rate defect regions act when their checks have been disabled.
	for r := 0; r < rounds; r++ {
		start := roundStart[r]
		for _, q := range dataQubits {
			p1 := modelAt(r).Rate1(q)
			if p1 <= 0 {
				continue
			}
			qi := qIdx[q]
			dx, ox := propagate(start, qi, 1)
			dz, oz := propagate(start, qi, 2)
			dy, oy := xorSig(dx, dz, ox, oz)
			addMech(p1/3, dx, ox, planContrib{kind: contribIdle, a: qi})
			addMech(p1/3, dz, oz, planContrib{kind: contribIdle, a: qi})
			addMech(p1/3, dy, oy, planContrib{kind: contribIdle, a: qi})
		}
	}

	// Emit merged mechanisms deterministically (lexicographic key order —
	// see the key-format comment above).
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dem.Mechs = make([]Mechanism, 0, len(keys))
	for _, k := range keys {
		m := merged[k]
		dem.Mechs = append(dem.Mechs, Mechanism{P: m.p, Dets: m.dets, Obs: m.obs})
	}

	if record != nil {
		core := &planCore{coords: coords, qIdx: qIdx}
		core.mechOff = make([]int32, len(keys)+1)
		total := 0
		for _, k := range keys {
			total += len(merged[k].contribs)
		}
		core.contribs = make([]planContrib, 0, total)
		for mi, k := range keys {
			core.contribs = append(core.contribs, merged[k].contribs...)
			core.mechOff[mi+1] = int32(len(core.contribs))
		}
		core.buildSiteIndex()
		dem.plan = &demPlan{core: core, base: record, codeFP: c.Fingerprint()}
	}
	return dem, nil
}
