// Package sim builds detector error models (DEMs) for memory experiments on
// (possibly deformed) surface codes and samples them efficiently.
//
// The approach mirrors Stim's: the syndrome-extraction circuit is
// materialized once, and one backward pass over it (Stim's error analyzer)
// gives, for every elementary fault location, the set of flipped detectors
// (parity comparisons that are deterministic in the noiseless circuit) plus
// the logical-observable flip, at a cost linear in the circuit size. Each
// fault is recorded as a contribution to a mechanism, identical mechanisms
// are merged, and a fold then rates every mechanism from its contributions
// under a noise model: the structure is rate-free, so a new model costs a
// fold, not an enumeration. Sampling draws each mechanism as an independent
// Bernoulli event and XORs signatures — orders of magnitude faster than
// stepping the circuit per shot.
package sim

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"sync"
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

// Mechanism is one independent error source: when it fires it flips the
// listed detectors and, if Obs, the logical observable. Its probability
// lives in DEM.P, so a mechanism list is rate-free and every variant of a
// DEM can share it.
type Mechanism struct {
	Dets []int32 // sorted detector IDs
	Obs  bool
}

// DEM is a detector error model for one memory experiment.
type DEM struct {
	NumDets int
	Mechs   []Mechanism
	// P holds each mechanism's probability: mechanism i fires with
	// probability P[i]. A patched DEM shares its base's Mechs and owns P.
	P []float64

	// DetRound and DetObs give, per detector, the round of its later
	// measurement and the observable (schedule index) it tracks — used by
	// decoders for diagnostics and by tests.
	DetRound []int32
	DetObs   []int32

	// Observables maps DetObs indices back to hardware locations; the
	// defect detector uses it to turn flagged observables into regions.
	Observables []ObsInfo

	// plan, when non-nil, is the fault structure P was folded from under
	// one model, mechanism for mechanism, so Patcher.Patch can refold it
	// under another (see patch.go). A phased DEM, and one whose fold
	// dropped a mechanism, carries none.
	plan *demPlan

	// derived is the one value a consumer derives from the DEM and keeps
	// with it (decoder.SharedGraph's decoding graph), filled once under
	// derivedOnce (Derived), so it lives exactly as long as the DEM.
	derivedOnce sync.Once
	derived     any
}

// Derived returns the value derive computes from d, calling derive on the
// first call only: every later call, from any goroutine, returns the
// first call's value without calling its argument, and a call made while
// the first is still computing waits for it. The slot belongs to one
// consumer, decoder.SharedGraph; nothing else may call Derived.
func (d *DEM) Derived(derive func(*DEM) any) any {
	d.derivedOnce.Do(func() { d.derived = derive(d) })
	return d.derived
}

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
	for i, m := range d.Mechs {
		f := 1 - 2*d.P[i]
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

// BuildDEM constructs the detector error model of a memory experiment in
// the given basis (lattice.ZCheck = memory-Z protecting the logical Z,
// exercising Z-type detectors against X errors) over the given number of
// syndrome-extraction rounds: the fault structure of (c, rounds, basis)
// folded under model. The DEM keeps the structure as its patch plan unless
// the fold dropped a mechanism. It enumerates the structure afresh, so
// the DEM shares nothing with another build; DEMCache and Patcher.Variant
// build through the process-wide structure cache instead (buildCached).
func BuildDEM(c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) (*DEM, error) {
	return buildModel(c, model, rounds, basis, enumerate)
}

// buildCached is BuildDEM with the fault structure taken from the
// process-wide structure cache: value for value the same DEM, folded
// without enumerating when the structure of (c, rounds, basis) is cached.
// It counts as a build either way.
func buildCached(c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) (*DEM, error) {
	return buildModel(c, model, rounds, basis, structures.get)
}

// structureFunc returns the fault structure of (c, rounds, basis), with
// the correlated pair when correlated: enumerate's output, which the
// caller reads and never changes.
type structureFunc func(c *code.Code, rounds int, basis lattice.CheckType, correlated bool) (*DEM, error)

// buildModel folds model into the structure structureOf returns and keeps
// the structure as the DEM's plan, with model and the code's fingerprint,
// unless the fold dropped a mechanism.
func buildModel(c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType, structureOf structureFunc) (*DEM, error) {
	dem, err := build(c, []Phase{{Rounds: rounds, Model: model}}, basis, structureOf)
	if err != nil || dem.plan == nil {
		return dem, err
	}
	dem.plan.base, dem.plan.code = model, c.Fingerprint()
	return dem, nil
}

// build folds the fault structure of c over the phases' total rounds,
// which structureOf returns, under each phase's model for that phase's
// rounds, into a DEM that shares the structure's detector layout,
// mechanisms, observables and core and owns its probability vector. The
// correlated pair is in the structure only when some phase rates it.
func build(c *code.Code, phases []Phase, basis lattice.CheckType, structureOf structureFunc) (*DEM, error) {
	rounds, correlated := 0, false
	for _, ph := range phases {
		rounds += ph.Rounds
		correlated = correlated || ph.Model.PCorrelated > 0
	}
	if rounds < 2 {
		return nil, fmt.Errorf("sim: need at least 2 rounds, got %d", rounds)
	}
	start := time.Now()
	defer func() {
		obsDEMBuilds.Inc()
		obsDEMBuildNs.Observe(time.Since(start).Nanoseconds())
	}()
	st, err := structureOf(c, rounds, basis, correlated)
	if err != nil {
		return nil, err
	}
	core, contribs := st.plan.core, st.plan.core.contribs
	var t rateTable
	for _, ph := range phases {
		core.resolve(&t, ph.Model)
	}
	if len(phases) > 1 {
		// Each contribution reads the block of its round's phase.
		block := make([]int32, 0, rounds)
		for k, ph := range phases {
			for range ph.Rounds {
				block = append(block, int32(k))
			}
		}
		n := int32(len(core.coords) + 1)
		contribs = slices.Clone(contribs)
		for i, c := range contribs {
			k := block[c.round]
			contribs[i].a, contribs[i].b, contribs[i].kind = c.a+k*n, c.b+k*n, c.kind+uint16(4*k)
		}
	}
	dem := &DEM{
		NumDets:     st.NumDets,
		Mechs:       st.Mechs,
		P:           make([]float64, len(st.Mechs)),
		DetRound:    st.DetRound,
		DetObs:      st.DetObs,
		Observables: st.Observables,
		plan:        &demPlan{core: core},
	}
	dem.fold(nil, contribs, &t)
	return dem, nil
}

// enumerate finds the rate-free fault structure of a memory experiment:
// the detector layout, the merged mechanisms' detector sets and observable
// flags in emission order (P left nil), and each mechanism's elementary
// contributions in fold order as the returned DEM's plan core. The
// correlated X⊗X/Z⊗Z pair of every CX is enumerated only when correlated.
// A check or observable that reads a coordinate outside the data qubits
// fails the build. Its working memory — the flat circuit, slot and record
// indices, the signature arena, the merge index and the fold records — is
// sized from the schedule and allocated once per build; the DEM shares
// none of it.
func enumerate(c *code.Code, rounds int, basis lattice.CheckType, correlated bool) (*DEM, error) {
	sched, err := circuit.NewSchedule(c)
	if err != nil {
		return nil, err
	}

	// Dense qubit indexing: data qubits first, then ancillas. Every data
	// lookup below checks its key, so a coordinate outside the data qubits
	// fails the build rather than reading as data qubit 0.
	dataQubits := c.DataQubits()
	nData, nSlots := len(dataQubits), len(sched.Ops)
	qIdx := make(map[lattice.Coord]int32, nData+nSlots)
	coords := make([]lattice.Coord, nData, nData+nSlots)
	copy(coords, dataQubits)
	for qi, q := range dataQubits {
		qIdx[q] = int32(qi)
	}
	for si := range sched.Ops {
		m := &sched.Ops[si]
		if m.Direct {
			continue
		}
		if _, ok := qIdx[m.Ancilla]; !ok {
			qIdx[m.Ancilla] = int32(len(coords))
			coords = append(coords, m.Ancilla)
		}
	}
	dataIndex := func(q lattice.Coord) (int32, bool) {
		qi, ok := qIdx[q]
		return qi, ok && int(qi) < nData
	}

	// Resolve every schedule slot once: its measured qubit (the ancilla, or
	// the data qubit of a direct measurement) and, CSR via slotOff, its data
	// qubits in schedule order.
	slotQ := make([]int32, nSlots)
	slotOff := make([]int32, 1, nSlots+1)
	var slotData []int32
	for si := range sched.Ops {
		m := &sched.Ops[si]
		for _, q := range m.Data {
			qi, ok := dataIndex(q)
			if !ok {
				return nil, fmt.Errorf("sim: check at %v acts on %v, which is not a data qubit", m.Ancilla, q)
			}
			slotData = append(slotData, qi)
		}
		slotOff = append(slotOff, int32(len(slotData)))
		if m.Direct {
			slotQ[si] = slotData[slotOff[si]]
		} else {
			slotQ[si] = qIdx[m.Ancilla]
		}
	}

	// Materialize the flat circuit: per round, each measured slot's reset
	// and CXs unless it is direct, and its measurement, between the data
	// initialization and readout. Data initialization in the memory basis
	// comes first (reset noise applies).
	nOps := 2 * nData
	for r := 0; r < rounds; r++ {
		for si := range sched.Ops {
			if m := &sched.Ops[si]; m.MeasuredThisRound(r) {
				nOps++
				if !m.Direct {
					nOps += 1 + len(m.Data)
				}
			}
		}
	}
	ops := make([]flatOp, 0, nOps)
	for qi := range nData {
		ops = append(ops, flatOp{kind: opReset, basis: basis, a: int32(qi), round: 0})
	}
	roundStart := make([]int, rounds)
	// slotRec holds the record of slot si in round r, plus one, at
	// r*nSlots+si; 0 when the slot is not measured that round.
	slotRec := make([]int32, rounds*nSlots)
	live := make([]int32, 0, nSlots)
	nRec := int32(0)
	for r := 0; r < rounds; r++ {
		roundStart[r] = len(ops)
		live = live[:0]
		maxSteps := 0
		for si := range sched.Ops {
			m := &sched.Ops[si]
			if !m.MeasuredThisRound(r) {
				continue
			}
			live = append(live, int32(si))
			if !m.Direct {
				ops = append(ops, flatOp{kind: opReset, basis: m.Basis, a: slotQ[si], round: int16(r)})
				maxSteps = max(maxSteps, len(m.Data))
			}
		}
		for t := 0; t < maxSteps; t++ {
			for _, si := range live {
				m := &sched.Ops[si]
				if m.Direct || t >= len(m.Data) {
					continue
				}
				anc, dat := slotQ[si], slotData[int(slotOff[si])+t]
				if m.Basis == lattice.XCheck {
					ops = append(ops, flatOp{kind: opCX, a: anc, b: dat, round: int16(r)}) // anc controls
				} else {
					ops = append(ops, flatOp{kind: opCX, a: dat, b: anc, round: int16(r)}) // data controls
				}
			}
		}
		for _, si := range live {
			slotRec[r*nSlots+int(si)] = nRec + 1
			ops = append(ops, flatOp{kind: opMeas, basis: sched.Ops[si].Basis, a: slotQ[si], rec: nRec, round: int16(r)})
			nRec++
		}
	}
	// Transversal readout of all data qubits in the memory basis: data
	// qubit qi's record is readout+qi.
	readout := nRec
	for qi := range nData {
		ops = append(ops, flatOp{kind: opMeas, basis: basis, a: int32(qi), rec: nRec, round: int16(rounds - 1)})
		nRec++
	}

	dem := &DEM{}
	if len(sched.Observables) > 0 {
		nAnc := 0
		for _, o := range sched.Observables {
			nAnc += len(o.Slots)
		}
		ancs := make([]lattice.Coord, nAnc)
		dem.Observables = make([]ObsInfo, len(sched.Observables))
		for oi, o := range sched.Observables {
			info := &dem.Observables[oi]
			info.Type, info.Support = o.Type, o.Support
			if n := len(o.Slots); n > 0 {
				info.Ancillas, ancs = ancs[:n:n], ancs[n:]
				for i, slot := range o.Slots {
					info.Ancillas[i] = sched.Ops[slot].Ancilla
				}
			}
		}
	}

	// Detector layout: per detector, its round and observable, and (CSR
	// via detOff) its records.
	var detRound, detObs, detRecs []int32
	detOff := []int32{0}
	for oi, o := range sched.Observables {
		if o.Type != basis {
			continue // opposite-type checks catch the other error species
		}
		// value appends the records whose XOR is the observable's value in
		// round r.
		value := func(r int) error {
			for _, slot := range o.Slots {
				rec := slotRec[r*nSlots+slot] - 1
				if rec < 0 {
					return fmt.Errorf("sim: observable %d reads slot %d, which round %d does not measure", oi, slot, r)
				}
				detRecs = append(detRecs, rec)
			}
			return nil
		}
		addDet := func(r int) {
			detRound = append(detRound, int32(r))
			detObs = append(detObs, int32(oi))
			detOff = append(detOff, int32(len(detRecs)))
		}
		// The initial detector compares the first value with the
		// deterministic init, each later one a value with the previous.
		prev := -1
		for r := 0; r < rounds; r++ {
			if !o.AvailableThisRound(r) {
				continue
			}
			if prev >= 0 {
				if err := value(prev); err != nil {
					return nil, err
				}
			}
			if err := value(r); err != nil {
				return nil, err
			}
			addDet(r)
			prev = r
		}
		if prev < 0 {
			continue
		}
		// Final detector: reconstruction from data readout vs last value.
		if err := value(prev); err != nil {
			return nil, err
		}
		for _, q := range o.Support {
			qi, ok := dataIndex(q)
			if !ok {
				return nil, fmt.Errorf("sim: observable %d reads %v, which is not a data qubit", oi, q)
			}
			detRecs = append(detRecs, readout+qi)
		}
		addDet(rounds)
	}
	dem.NumDets, dem.DetRound, dem.DetObs = len(detRound), detRound, detObs

	// Each record's detectors, ascending, as the first spans of the
	// signature arena: a counting sort of the detectors' records.
	recOff := make([]int32, nRec+1)
	for _, rec := range detRecs {
		recOff[rec+1]++
	}
	for rec := range nRec {
		recOff[rec+1] += recOff[rec]
	}
	sigs := sigArena{buf: make([]int32, len(detRecs), 2*len(detRecs))}
	next := make([]int32, nRec)
	copy(next, recOff)
	for d := range dem.NumDets {
		for _, rec := range detRecs[detOff[d]:detOff[d+1]] {
			sigs.buf[next[rec]] = int32(d)
			next[rec]++
		}
	}
	recSig := make([]sig, nRec)
	for rec := range recSig {
		recSig[rec] = sig{off: recOff[rec], n: recOff[rec+1] - recOff[rec]}
	}

	// Logical observable: readout parity over the logical support.
	logical := c.LogicalZ()
	if basis == lattice.XCheck {
		logical = c.LogicalX()
	}
	for _, q := range logical.Support() {
		qi, ok := dataIndex(q)
		if !ok {
			return nil, fmt.Errorf("sim: logical support qubit %v missing from readout", q)
		}
		recSig[readout+qi].obs = true
	}

	// Backward sensitivity pass (Stim's error analyzer), merging as it
	// walks. From the readout back to the start, sx[q] and sz[q] hold the
	// signature — flipped detectors and observable — that an X or a Z
	// inserted on qubit q at the current point would produce. Undoing a
	// reset clears both; undoing a CX xors the target's X signature into
	// the control's and the control's Z signature into the target's;
	// undoing a Z-basis (X-basis) measurement xors its record into the X
	// (Z) signature. A reset or CX fault acts right after its op, so it is
	// merged from the signatures before the op is undone; round r's idle
	// channel acts right before op roundStart[r], so it reads them after.
	// Data qubits are dense indices [0, nData), so idleX/idleZ hold round
	// r's idle signatures at [r*nData, (r+1)*nData).
	sx := make([]sig, len(coords))
	sz := make([]sig, len(coords))
	idleX := make([]sig, rounds*nData)
	idleZ := make([]sig, rounds*nData)
	// Each mechanism's contributions fold in the order a forward walk over
	// the circuit visits them — ops first, then the idle channel round by
	// round — so its probability does not depend on the pass that found
	// them. The walk records each op's components last to first, the idle
	// channel is recorded forward after it, and plan reads the walk's
	// records back to front. Each record names its source (mechFold) for
	// plan to decode, and counts the components of that source that the
	// mechanism takes: a CX's 15 Paulis, its correlated pair and an idle
	// triple are tallied per mechanism before they are recorded.
	mg := newMerger(len(ops))
	var comp sigArena
	var gen [16]sig
	ids := [16]int32{-1}
	r := rounds - 1
	for i := len(ops) - 1; i >= 0; i-- {
		op, src := ops[i], uint32(i)
		switch op.kind {
		case opReset:
			// Pauli-X channel on reset: the state flips to the orthogonal
			// basis state (X after |0>, Z after |+>).
			sg := sx[op.a]
			if op.basis == lattice.XCheck {
				sg = sz[op.a]
			}
			mg.add(sigs.dets(sg), sg.obs, src)
			sx[op.a], sz[op.a] = sig{}, sig{}
		case opCX:
			// The 15 two-qubit Paulis, composed from the four generators
			// X_a, X_b, Z_a, Z_b at gen[1<<g]: gen[m] = gen[m&(m-1)] ⊕
			// gen[m&-m]; then the correlated X⊗X and Z⊗Z with equal shares.
			// About half the generators have no effect, and a Pauli with
			// such a generator has the signature of the Pauli without it,
			// so it takes that one's mechanism (-1: none) unmerged.
			comp.buf = comp.buf[:0]
			inert := 0
			for g, sg := range [4]sig{sx[op.a], sx[op.b], sz[op.a], sz[op.b]} {
				gen[1<<g] = comp.add(sigs.dets(sg), sg.obs)
				if sg.n == 0 && !sg.obs {
					inert |= 1 << g
				}
			}
			for m := 1; m < 16; m++ {
				if e := m & inert; e != 0 {
					ids[m] = ids[m&^e]
					continue
				}
				if m&(m-1) != 0 {
					gen[m] = comp.xor(gen[m&(m-1)], gen[m&-m])
				}
				ids[m] = mg.id(comp.dets(gen[m]), gen[m].obs)
			}
			if correlated {
				mg.count(ids[0b1100])
				mg.count(ids[0b0011])
				mg.flush(src | srcCorr)
			}
			for m := 15; m > 0; m-- {
				mg.count(ids[m])
			}
			mg.flush(src)
			sx[op.a] = sigs.xor(sx[op.a], sx[op.b])
			sz[op.b] = sigs.xor(sz[op.b], sz[op.a])
		case opMeas:
			// Classical measurement flip.
			sg := recSig[op.rec]
			mg.add(sigs.dets(sg), sg.obs, src)
			if op.basis == lattice.ZCheck {
				sx[op.a] = sigs.xor(sx[op.a], sg)
			} else {
				sz[op.a] = sigs.xor(sz[op.a], sg)
			}
		}
		for ; r >= 0 && roundStart[r] == i; r-- {
			copy(idleX[r*nData:], sx[:nData])
			copy(idleZ[r*nData:], sz[:nData])
		}
	}
	walked := len(mg.folds)

	// Idle single-qubit depolarizing on every data qubit once per round
	// (the identity gate while ancillas are measured); this is also where
	// 50%-rate defect regions act when their checks have been disabled.
	src := uint32(len(ops))
	for r := 0; r < rounds; r++ {
		for qi := 0; qi < nData; qi++ {
			x, z := idleX[r*nData+qi], idleZ[r*nData+qi]
			y := sigs.xor(x, z)
			for _, sg := range [3]sig{x, z, y} {
				mg.count(mg.id(sigs.dets(sg), sg.obs))
			}
			mg.flush(src)
			src++
		}
	}

	rank := mg.emit(dem)
	core := &planCore{coords: coords, qIdx: qIdx, correlated: correlated}
	core.mechOff, core.contribs = mg.plan(rank, walked, ops, nData, len(coords))
	core.buildSiteIndex()
	dem.plan = &demPlan{core: core}
	return dem, nil
}

// sig is a fault signature: the sorted detectors it flips, held as a span
// of a sigArena, and whether it flips the logical observable. The zero sig
// flips nothing.
type sig struct {
	off, n int32
	obs    bool
}

// sigArena stores signatures as spans of one append-only array. A span is
// never rewritten, so a sig stays valid while the arena grows, and copying
// a sig copies the signature.
type sigArena struct{ buf []int32 }

func (a *sigArena) dets(s sig) []int32 { return a.buf[s.off : s.off+s.n : s.off+s.n] }

func (a *sigArena) add(dets []int32, obs bool) sig {
	off := int32(len(a.buf))
	a.buf = append(a.buf, dets...)
	return sig{off: off, n: int32(len(dets)), obs: obs}
}

// xor returns the signature of faults x and y together: the symmetric
// difference of their detectors and the parity of their observable flips.
func (a *sigArena) xor(x, y sig) sig {
	obs := x.obs != y.obs
	if y.n == 0 {
		return sig{off: x.off, n: x.n, obs: obs}
	}
	if x.n == 0 {
		return sig{off: y.off, n: y.n, obs: obs}
	}
	xs, ys := a.dets(x), a.dets(y)
	off := int32(len(a.buf))
	i, j := 0, 0
	for i < len(xs) && j < len(ys) {
		switch {
		case xs[i] < ys[j]:
			a.buf = append(a.buf, xs[i])
			i++
		case ys[j] < xs[i]:
			a.buf = append(a.buf, ys[j])
			j++
		default:
			i++
			j++
		}
	}
	a.buf = append(a.buf, xs[i:]...)
	a.buf = append(a.buf, ys[j:]...)
	return sig{off: off, n: int32(len(a.buf)) - off, obs: obs}
}

// merger merges fault components into unique mechanisms, numbered in
// first-seen order until emit sorts them, and records the components of
// each source as folds of their mechanisms, one record per mechanism and
// source.
type merger struct {
	// table is an open-addressing index of the mechanisms, probed linearly
	// from a signature's hash: a slot holds a mechanism number plus one, 0
	// when empty. hashes holds each mechanism's hash, so a probe reads the
	// detector span only on a full-hash match and growth rehashes without
	// rereading spans. The load stays at most ½.
	table  []int32
	hashes []uint64
	mechs  []sig // each mechanism's signature, a span of dets
	dets   sigArena
	folds  []mechFold // every record in fold order

	// tally counts, per mechanism, the components of the source being
	// tallied (count), and touched lists the mechanisms it counted, in
	// first-count order; flush records them and clears both.
	tally   []int32
	touched []int32
}

// mechFold records n components of mechanism mech from one source. src
// names the fault: an op index (its reset or measurement flip, or its
// CX's 15 Paulis), an op index with srcCorr set (its CX's correlated
// pair), or, from len(ops) up, the idle channel of data qubit qi in round
// r at len(ops)+r*nData+qi. plan decodes it into the contribution.
type mechFold struct {
	mech int32
	src  uint32
	n    int32
}

const srcCorr = 1 << 31

// newMerger returns a merger for a build of nOps ops. Surface-code
// circuits have about one unique mechanism per two ops and six to seven
// and a half components per op (d=3 to 9), about two records once tallied,
// so it reserves room for nOps/2 mechanisms and 3·nOps records; the
// buffers grow by append past that.
func newMerger(nOps int) *merger {
	n := 64
	for n < nOps {
		n <<= 1
	}
	return &merger{
		table:   make([]int32, n),
		hashes:  make([]uint64, 0, nOps/2),
		mechs:   make([]sig, 0, nOps/2),
		dets:    sigArena{buf: make([]int32, 0, nOps)},
		folds:   make([]mechFold, 0, 3*nOps),
		tally:   make([]int32, 0, nOps/2),
		touched: make([]int32, 0, 16),
	}
}

// sigHash mixes a signature into 64 bits (a multiplicative fold of the
// detectors, then the MurmurHash3 finalizer).
func sigHash(dets []int32, obs bool) uint64 {
	h := uint64(len(dets))
	if obs {
		h |= 1 << 32
	}
	for _, d := range dets {
		h = (h ^ uint64(uint32(d))) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// add records the one fault component of src; a component with no effect
// is dropped.
func (mg *merger) add(dets []int32, obs bool, src uint32) {
	mg.count(mg.id(dets, obs))
	mg.flush(src)
}

// count tallies one component of mechanism id for the next flush; id -1, a
// component with no effect, counts nothing.
func (mg *merger) count(id int32) {
	if id < 0 {
		return
	}
	if mg.tally[id] == 0 {
		mg.touched = append(mg.touched, id)
	}
	mg.tally[id]++
}

// flush records the tallied components as src's: one record per
// mechanism, with its count.
func (mg *merger) flush(src uint32) {
	for _, id := range mg.touched {
		mg.folds = append(mg.folds, mechFold{mech: id, src: src, n: mg.tally[id]})
		mg.tally[id] = 0
	}
	mg.touched = mg.touched[:0]
}

// id returns the number of the mechanism with signature (dets, obs),
// adding it on first sight, or -1 when the signature has no effect.
func (mg *merger) id(dets []int32, obs bool) int32 {
	if len(dets) == 0 && !obs {
		return -1
	}
	h := sigHash(dets, obs)
	mask := uint64(len(mg.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		id := mg.table[i] - 1
		if id < 0 {
			id = int32(len(mg.mechs))
			mg.table[i] = id + 1
			mg.hashes = append(mg.hashes, h)
			mg.mechs = append(mg.mechs, mg.dets.add(dets, obs))
			mg.tally = append(mg.tally, 0)
			if 2*len(mg.mechs) > len(mg.table) {
				mg.grow()
			}
			return id
		}
		if m := mg.mechs[id]; mg.hashes[id] == h && m.obs == obs && slices.Equal(mg.dets.dets(m), dets) {
			return id
		}
	}
}

// grow doubles the index and reinserts every mechanism.
func (mg *merger) grow() {
	mg.table = make([]int32, 2*len(mg.table))
	mask := uint64(len(mg.table) - 1)
	for id, h := range mg.hashes {
		i := h & mask
		for mg.table[i] != 0 {
			i = (i + 1) & mask
		}
		mg.table[i] = int32(id) + 1
	}
}

// emitKey orders one mechanism for emission: prefix is the first 8 bytes
// of its decimal key, zero-padded, as a big-endian integer.
type emitKey struct {
	prefix uint64
	mech   int32
}

// emit writes the merged mechanisms into dem.Mechs, unrated, their
// detector lists packed into one exactly sized array, and returns each
// mechanism's index there. The order is the lexicographic order of the
// decimal keys "<det>,<det>,…,\x00<obs>": the NUL sorts below every digit
// and the comma, so a detector list precedes its extensions. Comparing the
// zero-padded 8-byte prefixes as integers agrees with that order wherever
// they differ, so the bytes are compared only on a tie. The samplers' draw
// streams, and so every stored result, depend on this order.
func (mg *merger) emit(dem *DEM) []int32 {
	n := len(mg.mechs)
	var keys []byte
	keyOff := make([]int32, n+1)
	order := make([]emitKey, n)
	for i, m := range mg.mechs {
		for _, d := range mg.dets.dets(m) {
			keys = strconv.AppendInt(keys, int64(d), 10)
			keys = append(keys, ',')
		}
		obs := byte(0)
		if m.obs {
			obs = 1
		}
		keys = append(keys, 0, obs)
		keyOff[i+1] = int32(len(keys))
		var pad [8]byte
		copy(pad[:], keys[keyOff[i]:])
		order[i] = emitKey{prefix: binary.BigEndian.Uint64(pad[:]), mech: int32(i)}
	}
	slices.SortFunc(order, func(a, b emitKey) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		return bytes.Compare(keys[keyOff[a.mech]:keyOff[a.mech+1]], keys[keyOff[b.mech]:keyOff[b.mech+1]])
	})

	flat := make([]int32, len(mg.dets.buf))
	dem.Mechs = make([]Mechanism, n)
	rank := make([]int32, n)
	off := int32(0)
	for i, k := range order {
		rank[k.mech] = int32(i)
		m := mg.mechs[k.mech]
		dem.Mechs[i].Obs = m.obs
		if m.n > 0 {
			end := off + m.n
			dem.Mechs[i].Dets = flat[off:end:end]
			copy(dem.Mechs[i].Dets, mg.dets.dets(m))
			off = end
		}
	}
	return rank
}

// plan lays the recorded folds out as the plan core's CSR: a stable
// counting sort by emitted mechanism index of the folds in forward order —
// the first walked, which the backward walk recorded last to first, back
// to front, then the rest as recorded — which keeps each mechanism's
// contributions in fold order, each fold's source decoded into its
// contribution. Single-qubit contributions name their qubit twice and the
// correlated pair names the never-overridden slot nQubits, so one rate
// rule serves every kind (DEM.fold). Each fold becomes one contribution
// entry, a run of the components its source gives its mechanism.
func (mg *merger) plan(rank []int32, walked int, ops []flatOp, nData, nQubits int) (mechOff []int32, contribs []planContrib) {
	folds := mg.folds
	n := len(rank)
	mechOff = make([]int32, n+1)
	for _, f := range folds {
		mechOff[rank[f.mech]+1]++
	}
	for i := 0; i < n; i++ {
		mechOff[i+1] += mechOff[i]
	}
	next := slices.Clone(mechOff[:n])
	contribs = make([]planContrib, len(folds))
	nOps, unset := uint32(len(ops)), int32(nQubits)
	for j := range folds {
		if j < walked {
			j = walked - 1 - j
		}
		f := folds[j]
		c := planContrib{n: f.n}
		switch {
		case f.src&srcCorr != 0:
			c.kind, c.a, c.b, c.round = contribCorr, unset, unset, ops[f.src&^srcCorr].round
		case f.src < nOps:
			op := ops[f.src]
			c.round = op.round
			if op.kind == opCX {
				c.kind, c.a, c.b = contribCX, op.a, op.b
			} else {
				c.kind, c.a, c.b = contribMeasReset, op.a, op.a
			}
		default:
			slot := int(f.src - nOps)
			qi := int32(slot % nData)
			c.kind, c.a, c.b, c.round = contribIdle, qi, qi, int16(slot/nData)
		}
		r := rank[f.mech]
		contribs[next[r]] = c
		next[r]++
	}
	return mechOff, contribs
}
