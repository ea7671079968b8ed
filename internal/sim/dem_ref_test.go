package sim

// This file pins buildDEM's backward sensitivity pass against the forward
// enumeration it replaced. refBuildDEM is a faithful copy of the former
// builder: it carries every elementary fault's Pauli frame forward to the
// final readout, one walk per fault, rates each fault as it finds it and
// merges signatures under decimal string keys. The differential tests
// below require bit-identical DEMs — probabilities, detector lists and
// observable flags — and the same positive contributions per mechanism, so
// any divergence means the enumeration or the fold changed what is built,
// not just how fast.

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"surfdeformer/internal/circuit"
	"surfdeformer/internal/code"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
)

// refMergedMech accumulates one signature's merged probability during fault
// enumeration, along with the sorted detector list (kept so emission never
// re-parses the key) and the ordered elementary contributions whose
// XOR-composition produced the probability.
type refMergedMech struct {
	p        float64
	dets     []int32
	obs      bool
	contribs []planContrib
}

// refBuildDEM is the forward-enumeration builder: modelAt gives each
// round's model. It returns the DEM, without a plan, and the positive
// contributions it folded into each mechanism, with the qubit indexing, as
// a plan core without a site index. Contributions name their sites as the
// enumeration does: a single-qubit kind its site twice, the correlated pair
// the slot past the last site.
func refBuildDEM(c *code.Code, modelAt func(int) *noise.Model, rounds int, basis lattice.CheckType) (*DEM, *planCore, error) {
	if rounds < 2 {
		return nil, nil, fmt.Errorf("sim: need at least 2 rounds, got %d", rounds)
	}
	sched, err := circuit.NewSchedule(c)
	if err != nil {
		return nil, nil, err
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
			return nil, nil, fmt.Errorf("sim: logical support qubit %v missing from readout", q)
		}
		obsRec[rec] = true
	}

	// Fault enumeration. Signatures key on the sorted detector list plus the
	// observable flag, serialized as "<det>,<det>,...,\x00<obs>" — the NUL
	// separator sorts below every digit, so lexicographic key order
	// reproduces the (dets string, obs) emission order exactly, which fixes
	// the Mechs order the samplers' draw streams depend on.
	merged := map[string]*refMergedMech{}
	var keyBuf []byte
	addMech := func(p float64, dets []int32, obs bool, contrib planContrib) {
		if p <= 0 || (len(dets) == 0 && !obs) {
			return
		}
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
			m = &refMergedMech{dets: append([]int32(nil), dets...), obs: obs}
			merged[string(keyBuf)] = m
		}
		m.p = m.p + p - 2*m.p*p
		m.contribs = append(m.contribs, contrib)
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
			addMech(p, dets, obs, planContrib{kind: contribMeasReset, a: op.a, b: op.a, round: op.round})
		case opMeas:
			// Classical measurement flip.
			p := modelAt(int(op.round)).RateM(coords[op.a])
			dets, obs := flipRecord(op.rec)
			addMech(p, dets, obs, planContrib{kind: contribMeasReset, a: op.a, b: op.a, round: op.round})
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
				addMech(p2/15, dets, obs, planContrib{kind: contribCX, a: op.a, b: op.b, round: op.round})
			}
			if model.PCorrelated > 0 {
				// Correlated X⊗X and Z⊗Z with equal shares.
				unset := int32(len(coords))
				pair := planContrib{kind: contribCorr, a: unset, b: unset, round: op.round}
				dxx, oxx := xorSig(gen[0].dets, gen[1].dets, gen[0].obs, gen[1].obs)
				addMech(model.PCorrelated/2, dxx, oxx, pair)
				dzz, ozz := xorSig(gen[2].dets, gen[3].dets, gen[2].obs, gen[3].obs)
				addMech(model.PCorrelated/2, dzz, ozz, pair)
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
			idle := planContrib{kind: contribIdle, a: qi, b: qi, round: int16(r)}
			addMech(p1/3, dx, ox, idle)
			addMech(p1/3, dz, oz, idle)
			addMech(p1/3, dy, oy, idle)
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
	dem.P = make([]float64, 0, len(keys))
	for _, k := range keys {
		m := merged[k]
		dem.Mechs = append(dem.Mechs, Mechanism{Dets: m.dets, Obs: m.obs})
		dem.P = append(dem.P, m.p)
	}

	core := &planCore{coords: coords, qIdx: qIdx}
	core.mechOff = make([]int32, len(keys)+1)
	for mi, k := range keys {
		core.contribs = append(core.contribs, merged[k].contribs...)
		core.mechOff[mi+1] = int32(len(core.contribs))
	}
	return dem, core, nil
}

// demCase is one build configuration of the differential tests. phases,
// when set, makes it a two-phase BuildPhasedDEM build over rounds total.
type demCase struct {
	name   string
	c      *code.Code
	model  *noise.Model
	phases []Phase
	rounds int
	basis  lattice.CheckType
}

// requireMatchesReference builds tc with the public entry points and with
// refBuildDEM and requires the two DEMs to be identical — detector layout
// and every mechanism bit for bit — and the fold to have used exactly the
// reference's contributions: walking the structure the build folded (its
// plan core, or a fresh enumeration when the DEM kept none), each
// mechanism's positive contributions under an independent rate rule
// (refContribRate) must be the reference's recorded list, in order, and a
// mechanism without any is dropped. The DEM keeps its plan exactly when it
// is a single-model build that dropped nothing.
func requireMatchesReference(t *testing.T, tc demCase) {
	t.Helper()
	modelAt := func(int) *noise.Model { return tc.model }
	correlated := tc.model != nil && tc.model.PCorrelated > 0
	var got *DEM
	var err error
	if tc.phases == nil {
		got, err = BuildDEM(tc.c, tc.model, tc.rounds, tc.basis)
	} else {
		split := tc.phases[0].Rounds
		modelAt = func(r int) *noise.Model {
			if r < split {
				return tc.phases[0].Model
			}
			return tc.phases[1].Model
		}
		correlated = tc.phases[0].Model.PCorrelated > 0 || tc.phases[1].Model.PCorrelated > 0
		got, err = BuildPhasedDEM(tc.c, tc.phases, tc.basis)
	}
	want, wantPlan, refErr := refBuildDEM(tc.c, modelAt, tc.rounds, tc.basis)
	if err != nil || refErr != nil {
		t.Fatalf("%s: build error %v, reference error %v", tc.name, err, refErr)
	}
	demValuesEqual(t, got, want, tc.name)
	st := got.plan
	if st == nil {
		dem, err := enumerate(tc.c, tc.rounds, tc.basis, correlated)
		if err != nil {
			t.Fatal(err)
		}
		st = dem.plan
	} else if tc.phases != nil || st.base != tc.model || st.code != tc.c.Fingerprint() {
		t.Fatalf("%s: plan kept by a phased build, or for another model or code", tc.name)
	}
	core := st.core
	if !slices.Equal(core.coords, wantPlan.coords) || !maps.Equal(core.qIdx, wantPlan.qIdx) {
		t.Fatalf("%s: plan qubit indexing differs", tc.name)
	}
	nm := len(core.mechOff) - 1
	j := 0
	for mi := 0; mi < nm; mi++ {
		var pos []planContrib
		for _, c := range core.contribs[core.mechOff[mi]:core.mechOff[mi+1]] {
			if !(refContribRate(modelAt(int(c.round)), core.coords, c) <= 0) {
				// The reference lists each contribution on its own, with
				// no run length: expand the run.
				one := c
				one.n = 0
				for range c.n {
					pos = append(pos, one)
				}
			}
		}
		if len(pos) == 0 {
			continue // dropped by the fold, never found by the reference
		}
		if j == len(want.Mechs) {
			t.Fatalf("%s: structure mechanism %d has positive contributions the reference never folded", tc.name, mi)
		}
		if !slices.Equal(pos, wantPlan.contribs[wantPlan.mechOff[j]:wantPlan.mechOff[j+1]]) {
			t.Fatalf("%s: mechanism %d folds contributions %v, reference %v", tc.name, j, pos,
				wantPlan.contribs[wantPlan.mechOff[j]:wantPlan.mechOff[j+1]])
		}
		j++
	}
	if j != len(want.Mechs) {
		t.Fatalf("%s: %d rated structure mechanisms, reference %d", tc.name, j, len(want.Mechs))
	}
	if keep := tc.phases == nil && j == nm; keep != (got.plan != nil) {
		t.Fatalf("%s: plan kept %v, want %v", tc.name, got.plan != nil, keep)
	}
}

// refContribRate rates one contribution as refBuildDEM does, through the
// model's own rate methods.
func refContribRate(m *noise.Model, coords []lattice.Coord, c planContrib) float64 {
	switch c.kind {
	case contribMeasReset:
		return m.RateM(coords[c.a])
	case contribCX:
		return m.Rate2(coords[c.a], coords[c.b]) / 15
	case contribCorr:
		if !(m.PCorrelated > 0) {
			return 0
		}
		return m.PCorrelated / 2
	}
	return m.Rate1(coords[c.a]) / 3
}

// randomDeformedCode steps a fresh d=3 or d=5 unit through one or two
// random defect reports, then half the time bandages a random data qubit
// on top: the code shapes a trajectory produces. A report that severs the
// patch ends the history early.
func randomDeformedCode(t *testing.T, rng *rand.Rand) *code.Code {
	t.Helper()
	d := 3 + 2*rng.Intn(2)
	u := deform.NewUnit(lattice.Coord{}, d, d, deform.PolicySurfDeformer, deform.UniformBudget(1))
	c, err := u.Code()
	if err != nil {
		t.Fatal(err)
	}
	for steps := 1 + rng.Intn(2); steps > 0; steps-- {
		min, max := u.Spec().Bounds()
		var defects []lattice.Coord
		for i := 1 + rng.Intn(2); i > 0; i-- {
			q := lattice.Coord{Row: min.Row + rng.Intn(max.Row-min.Row+1), Col: min.Col + rng.Intn(max.Col-min.Col+1)}
			if q.IsData() || q.IsCheck() {
				defects = append(defects, q)
			}
		}
		res, err := u.Step(defects)
		if err != nil {
			break
		}
		c = res.Code
	}
	if rng.Intn(2) == 0 {
		data := c.DataQubits()
		// A site the construction rejects leaves c untouched.
		_, _ = deform.BandageQubit(c, data[rng.Intn(len(data))])
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

type namedModel struct {
	name  string
	model *noise.Model
}

// demModels returns the noise-model shapes a build must handle, at a
// random base rate: uniform, correlated, a site-rate overlay, a defect
// set, and a zero idle or zero measurement rate.
func demModels(c *code.Code, rng *rand.Rand) []namedModel {
	p := float64(1+rng.Intn(8)) * 1e-3
	sites := append(c.DataQubits(), c.SyndromeQubits()...)
	defects := []lattice.Coord{sites[rng.Intn(len(sites))], sites[rng.Intn(len(sites))]}
	uniform := noise.Uniform(p)
	return []namedModel{
		{"uniform", uniform},
		{"correlated", uniform.WithCorrelated(p / 4)},
		{"site-rates", uniform.WithSiteRates(siteRates(randomOverlay(rng, sites, p)))},
		{"defects", uniform.WithDefects(defects, noise.DefaultDefectRate)},
		{"p1-zero", &noise.Model{P2: p, PM: p}},
		{"pm-zero", &noise.Model{P1: p, P2: p}},
	}
}

// twoPhase splits rounds into a nominal phase and a phase under model.
func twoPhase(model *noise.Model, rounds int, rng *rand.Rand) []Phase {
	split := 1 + rng.Intn(rounds-1)
	return []Phase{{Rounds: split, Model: noise.Uniform(model.P2)}, {Rounds: rounds - split, Model: model}}
}

var demBases = []lattice.CheckType{lattice.ZCheck, lattice.XCheck}

// TestBuildDEMMatchesReference is the differential sweep: fresh, deformed
// and randomly deformed-and-bandaged codes, every model shape, both bases,
// 2/3/4/8 rounds and two-phase builds, each required to equal the forward
// enumeration bit for bit.
func TestBuildDEMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	type namedCode struct {
		name string
		c    *code.Code
	}
	codes := []namedCode{
		{"d3", freshCode(t, 3)},
		{"d5", freshCode(t, 5)},
		{"d7", freshCode(t, 7)},
		{"d5-deformed", deformedCode(t)},
	}
	for i := 0; i < 4; i++ {
		codes = append(codes, namedCode{fmt.Sprintf("random%d", i), randomDeformedCode(t, rng)})
	}
	roundsList := []int{2, 3, 4, 8}
	n := 0
	for _, cc := range codes {
		for _, m := range demModels(cc.c, rng) {
			for _, basis := range demBases {
				rounds := roundsList[n%len(roundsList)]
				n++
				name := fmt.Sprintf("%s/%s/basis%v/r%d", cc.name, m.name, basis, rounds)
				requireMatchesReference(t, demCase{name: name, c: cc.c, model: m.model, rounds: rounds, basis: basis})
				phases := twoPhase(m.model, rounds, rng)
				requireMatchesReference(t, demCase{name: name + "/phased", c: cc.c, phases: phases, rounds: rounds, basis: basis})
			}
		}
	}
}

// FuzzBuildDEM draws one configuration per seed from the same generator
// as TestBuildDEMMatchesReference and requires the reference's DEM.
func FuzzBuildDEM(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var c *code.Code
		switch rng.Intn(4) {
		case 0:
			c = freshCode(t, 3)
		case 1:
			c = freshCode(t, 5)
		case 2:
			c = deformedCode(t)
		default:
			c = randomDeformedCode(t, rng)
		}
		models := demModels(c, rng)
		m := models[rng.Intn(len(models))]
		tc := demCase{name: m.name, c: c, model: m.model, rounds: 2 + rng.Intn(7), basis: demBases[rng.Intn(2)]}
		if rng.Intn(4) == 0 {
			tc.phases = twoPhase(m.model, tc.rounds, rng)
		}
		requireMatchesReference(t, tc)
	})
}
