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
	"encoding/binary"
	"fmt"
	"slices"
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
// the fold dropped a mechanism.
func BuildDEM(c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) (*DEM, error) {
	dem, err := build(c, []Phase{{Rounds: rounds, Model: model}}, basis)
	if err != nil || dem.plan == nil {
		return dem, err
	}
	dem.plan.base, dem.plan.codeID = model, c.ID()
	return dem, nil
}

// build enumerates the fault structure of c over the phases' total rounds
// and folds it under each phase's model for that phase's rounds. The
// correlated pair is enumerated only when some phase rates it.
func build(c *code.Code, phases []Phase, basis lattice.CheckType) (*DEM, error) {
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
	dem, err := enumerate(c, rounds, basis, correlated)
	if err != nil {
		return nil, err
	}
	core, contribs := dem.plan.core, dem.plan.core.contribs
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
	dem.P = make([]float64, len(dem.Mechs))
	dem.fold(nil, contribs, &t)
	return dem, nil
}

// enumerate finds the rate-free fault structure of a memory experiment:
// the detector layout, the merged mechanisms' detector sets and observable
// flags in emission order (P left nil), and each mechanism's elementary
// contributions in fold order as the returned DEM's plan core. The
// correlated X⊗X/Z⊗Z pair of every CX is enumerated only when correlated.
func enumerate(c *code.Code, rounds int, basis lattice.CheckType, correlated bool) (*DEM, error) {
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

	// Backward sensitivity pass (Stim's error analyzer). Walking the circuit
	// from the readout back to the start, sx[q] and sz[q] hold the signature
	// — flipped detectors and observable — that an X or a Z inserted on
	// qubit q at the current point would produce. Undoing a reset clears
	// both; undoing a CX xors the target's X signature into the control's
	// and the control's Z signature into the target's; undoing a Z-basis
	// (X-basis) measurement xors its record into the X (Z) signature. A
	// reset or CX fault acts right after its op, so it reads the signatures
	// before the op is undone; round r's idle channel acts right before op
	// roundStart[r], so it reads them after.
	var sigs sigArena
	recSig := make([]sig, nRec)
	for r, dets := range recDets {
		recSig[r] = sigs.add(dets, obsRec[r])
	}
	sx := make([]sig, len(coords))
	sz := make([]sig, len(coords))
	// opSigs holds, in op order, each reset's fault signature and each CX's
	// four generator signatures X_a, X_b, Z_a, Z_b; it fills back to front.
	// Data qubits are dense indices [0, nData), so idleX/idleZ hold round
	// r's idle signatures at [r*nData, (r+1)*nData). maxFolds bounds the
	// components emission records: one per reset and measurement, 15 + 2
	// correlated per CX, three idle Paulis per data qubit and round.
	nData := len(dataQubits)
	nOpSigs, maxFolds := 0, 3*rounds*nData
	for _, op := range ops {
		switch op.kind {
		case opReset:
			nOpSigs++
			maxFolds++
		case opMeas:
			maxFolds++
		case opCX:
			nOpSigs += 4
			maxFolds += 17
		}
	}
	opSigs := make([]sig, nOpSigs)
	idleX := make([]sig, rounds*nData)
	idleZ := make([]sig, rounds*nData)
	k, r := nOpSigs, rounds-1
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		switch op.kind {
		case opReset:
			k--
			opSigs[k] = sx[op.a] // the reset flip: X after |0>, Z after |+>
			if op.basis == lattice.XCheck {
				opSigs[k] = sz[op.a]
			}
			sx[op.a], sz[op.a] = sig{}, sig{}
		case opCX:
			k -= 4
			opSigs[k], opSigs[k+1], opSigs[k+2], opSigs[k+3] = sx[op.a], sx[op.b], sz[op.a], sz[op.b]
			sx[op.a] = sigs.xor(sx[op.a], sx[op.b])
			sz[op.b] = sigs.xor(sz[op.b], sz[op.a])
		case opMeas:
			if op.basis == lattice.ZCheck {
				sx[op.a] = sigs.xor(sx[op.a], recSig[op.rec])
			} else {
				sz[op.a] = sigs.xor(sz[op.a], recSig[op.rec])
			}
		}
		for ; r >= 0 && roundStart[r] == i; r-- {
			copy(idleX[r*nData:], sx[:nData])
			copy(idleZ[r*nData:], sz[:nData])
		}
	}

	// Forward emission, with k back at 0: record every fault component in
	// the order a forward walk over the circuit visits it — ops first, then
	// the idle channel round by round — so each mechanism's contributions,
	// and with them its folded probability, do not depend on the pass that
	// found them. Single-qubit contributions name their qubit twice and the
	// correlated pair names the never-overridden slot len(coords), so one
	// rate rule serves every kind (fold). Surface-code circuits have about
	// one unique mechanism per two ops, which sizes the merge index and the
	// mechanism list.
	mg := merger{index: make(map[string]int32, len(ops)/2), mechs: make([]sig, 0, len(ops)/2),
		folds: make([]mechFold, 0, maxFolds)}
	var scratch sigArena
	var comp [16]sig
	for _, op := range ops {
		switch op.kind {
		case opReset:
			// Pauli-X channel on reset: the state flips to the orthogonal
			// basis state (X after |0>, Z after |+>).
			s := opSigs[k]
			k++
			mg.add(sigs.dets(s), s.obs, planContrib{kind: contribMeasReset, a: op.a, b: op.a, round: op.round})
		case opMeas:
			// Classical measurement flip.
			s := recSig[op.rec]
			mg.add(sigs.dets(s), s.obs, planContrib{kind: contribMeasReset, a: op.a, b: op.a, round: op.round})
		case opCX:
			// The 15 two-qubit Paulis, composed from the four generators
			// comp[1<<g] = opSigs[k+g]: comp[m] = comp[m&(m-1)] ⊕ comp[m&-m].
			scratch.buf = scratch.buf[:0]
			for g := 0; g < 4; g++ {
				s := opSigs[k+g]
				comp[1<<g] = scratch.add(sigs.dets(s), s.obs)
			}
			k += 4
			for m := 1; m < 16; m++ {
				if m&(m-1) != 0 {
					comp[m] = scratch.xor(comp[m&(m-1)], comp[m&-m])
				}
				mg.add(scratch.dets(comp[m]), comp[m].obs, planContrib{kind: contribCX, a: op.a, b: op.b, round: op.round})
			}
			if correlated {
				// Correlated X⊗X and Z⊗Z with equal shares.
				unset := int32(len(coords))
				for _, m := range [2]int{0b0011, 0b1100} {
					mg.add(scratch.dets(comp[m]), comp[m].obs, planContrib{kind: contribCorr, a: unset, b: unset, round: op.round})
				}
			}
		}
	}

	// Idle single-qubit depolarizing on every data qubit once per round
	// (the identity gate while ancillas are measured); this is also where
	// 50%-rate defect regions act when their checks have been disabled.
	for r := 0; r < rounds; r++ {
		for qi := 0; qi < nData; qi++ {
			x, z := idleX[r*nData+qi], idleZ[r*nData+qi]
			y := sigs.xor(x, z)
			for _, s := range [3]sig{x, z, y} {
				mg.add(sigs.dets(s), s.obs, planContrib{kind: contribIdle, a: int32(qi), b: int32(qi), round: int16(r)})
			}
		}
	}

	rank := mg.emit(dem)
	core := &planCore{coords: coords, qIdx: qIdx, correlated: correlated}
	core.mechOff, core.contribs = mg.plan(rank)
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
// first-seen order until emit sorts them, and records every component as a
// contribution to its mechanism.
type merger struct {
	index map[string]int32 // binary signature key → mechanism number
	key   []byte
	mechs []sig // each mechanism's signature, a span of dets
	dets  sigArena
	folds []mechFold // every recorded component in fold order
}

// mechFold is one component recorded for mechanism mech.
type mechFold struct {
	mech    int32
	contrib planContrib
}

// add records one fault component; a component with no effect is dropped.
func (mg *merger) add(dets []int32, obs bool, contrib planContrib) {
	if len(dets) == 0 && !obs {
		return
	}
	mg.key = mg.key[:0]
	for _, d := range dets {
		mg.key = binary.LittleEndian.AppendUint32(mg.key, uint32(d))
	}
	if obs {
		mg.key = append(mg.key, 1) // 4n+1 bytes: never another list's key
	}
	id, ok := mg.index[string(mg.key)]
	if !ok {
		id = int32(len(mg.mechs))
		mg.index[string(mg.key)] = id
		mg.mechs = append(mg.mechs, mg.dets.add(dets, obs))
	}
	mg.folds = append(mg.folds, mechFold{mech: id, contrib: contrib})
}

// emit writes the merged mechanisms into dem.Mechs, unrated, their
// detector lists packed into one exactly sized array, and returns each
// mechanism's index there. The order is the lexicographic order of the
// decimal keys "<det>,<det>,…,\x00<obs>": the NUL sorts below every digit
// and the comma, so a detector list precedes its extensions. The samplers'
// draw streams, and so every stored result, depend on this order.
func (mg *merger) emit(dem *DEM) []int32 {
	n := len(mg.mechs)
	var keys []byte
	keyOff := make([]int32, n+1)
	order := make([]int32, n)
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
		order[i] = int32(i)
	}
	key := func(i int32) []byte { return keys[keyOff[i]:keyOff[i+1]] }
	slices.SortFunc(order, func(a, b int32) int { return bytes.Compare(key(a), key(b)) })

	flat := make([]int32, len(mg.dets.buf))
	dem.Mechs = make([]Mechanism, n)
	rank := make([]int32, n)
	off := int32(0)
	for i, id := range order {
		rank[id] = int32(i)
		m := mg.mechs[id]
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
// counting sort by emitted mechanism index, which keeps each mechanism's
// contributions in fold order.
func (mg *merger) plan(rank []int32) (mechOff []int32, contribs []planContrib) {
	n := len(mg.mechs)
	mechOff = make([]int32, n+1)
	for _, f := range mg.folds {
		mechOff[rank[f.mech]+1]++
	}
	for i := 0; i < n; i++ {
		mechOff[i+1] += mechOff[i]
	}
	next := slices.Clone(mechOff[:n])
	contribs = make([]planContrib, len(mg.folds))
	for _, f := range mg.folds {
		r := rank[f.mech]
		contribs[next[r]] = f.contrib
		next[r]++
	}
	return mechOff, contribs
}
