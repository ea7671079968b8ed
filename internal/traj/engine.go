package traj

// The trajectory engine: the paper's fig. 5 loop — detect a defect from the
// syndrome stream, deform adaptively, recover when it subsides — run per
// patch over a floorplan of N patches on one cycle clock. A single-patch
// Config (Layout nil) is the 1-tile floorplan: one patch, no routing
// channels, no surgery schedule. With N ≥ 2 two layout-only mechanisms
// switch on: defect events landing in the routing channels block grid cells
// for their duration, and a program-derived lattice-surgery schedule routes
// merge operations through the channels (route.Grid), which replan around
// blockage or stall (surgery.MergeBlocked).
//
// The epoch model is patch-wise: every patch samples the same chunk of
// rounds through its own DEM/sampler/decoder with its own shot stream, the
// per-round detector feed interleaves all patches, and the first fresh flag
// on ANY patch cuts the chunk for all of them — patches stay
// cycle-synchronized, which is what lets the surgery schedule and the
// channel bookkeeping sit at chunk boundaries.
//
// Determinism: the event timeline derives from one stream over the full
// floorplan bounding box; patch 0's shots derive from DeriveSeed(seed,
// saltShots) and patch p > 0's from DeriveSeed(seed, saltShots, p). Routing
// is RNG-free (see internal/route).

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"surfdeformer/internal/code"
	"surfdeformer/internal/core"
	"surfdeformer/internal/decoder"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/detect"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/layout"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/program"
	"surfdeformer/internal/route"
	"surfdeformer/internal/sim"
	"surfdeformer/internal/surgery"
)

// LayoutConfig parameterizes a multi-patch floorplan.
type LayoutConfig struct {
	// Patches is the number of logical patches (row-major on a near-square
	// grid, layout.New placement).
	Patches int
	// Program names the benchmark whose CNOT stream the surgery schedule is
	// a prefix of: "simon", "rca", "qft", "grover", or "" for no schedule.
	Program string
	// Ops truncates the schedule (0 with a Program = 2·Patches, capped at
	// the program's CNOT count; 0 without a Program = no schedule).
	Ops int
}

// program resolves the benchmark named by the config (nil when none).
func (lc *LayoutConfig) program() (*program.Program, error) {
	switch lc.Program {
	case "":
		return nil, nil
	case "simon":
		return program.Simon(lc.Patches, 1), nil
	case "rca":
		return program.RCA(lc.Patches, 1), nil
	case "qft":
		return program.QFT(lc.Patches, 1), nil
	case "grover":
		return program.Grover(lc.Patches, 1), nil
	}
	return nil, fmt.Errorf("traj: unknown layout program %q", lc.Program)
}

// scheduleOps derives the lattice-surgery CNOT schedule: a deterministic
// round-robin over patch pairs (operation k acts on patch k mod N and a
// partner at a stride that advances every full rotation, so the schedule
// exercises all distances on the grid). Patch indices double as grid cell
// indices — layout placement and route.Grid share row-major order.
func (lc *LayoutConfig) scheduleOps() ([]route.CNOT, error) {
	prog, err := lc.program()
	if err != nil {
		return nil, err
	}
	n := lc.Patches
	opsN := lc.Ops
	if opsN == 0 {
		// Default schedule length: a slice of the program's CNOT stream
		// sized to the layout (full programs run for days of simulated
		// time; trajectories sample a representative excerpt). An explicit
		// Ops overrides this, including past the excerpt cap.
		if prog == nil {
			return nil, nil
		}
		opsN = 2 * n
		if int64(opsN) > prog.CX {
			opsN = int(prog.CX)
		}
	}
	ops := make([]route.CNOT, opsN)
	for k := 0; k < opsN; k++ {
		a := k % n
		b := (a + 1 + (k/n)%(n-1)) % n
		ops[k] = route.CNOT{Control: a, Target: b}
	}
	return ops, nil
}

// chanEvent is the channel-side residue of a defect event: the grid cells
// (and raw sites, for the surgery strip check) it blocks for its duration.
type chanEvent struct {
	start, end int64
	cells      []int
	sites      []lattice.Coord
}

// patchState is the per-patch slice of the engine's runtime state.
type patchState struct {
	spec        *deform.Spec // static arms only (sys == nil); live spec via sys otherwise
	curCode     *code.Code
	pristine    *code.Code
	events      []*event
	window      *detect.Window
	attributed  map[int32]*attribution
	shotRNG     *rand.Rand
	quietUntil  int64 // post-deformation dwell: no detector consults
	blocked     bool
	codeSites   []lattice.Coord  // sorted sites of sitesOf
	sitesOf     *code.Code       // code codeSites was computed for
	scratch     [][]int32        // roundStream scratch
	flags       []int32          // newFlags scratch
	rateFold    siteFold         // storage of rates
	overlayNext []noise.SiteRate // storage of the next chunk's overlay
	overlayWork overlayScratch

	// Per-chunk staging, valid between the sample and score phases. The
	// overlay double-buffers with overlayNext: it stays the previous
	// chunk's until a chunk's differs, so a change is one slices.Equal.
	byRound            [][]int32
	overlay            []noise.SiteRate
	rates              []noise.SiteRate
	failed             bool
	fresh              []int32
	dem                *sim.DEM // the chunk's sample DEM (for attribution)
	sampleNs, decodeNs int64    // shot timings, measured under tracing only
}

// liveSpec returns the patch's current spec: the deformation unit's for
// deforming arms, the static one otherwise.
func (ps *patchState) liveSpec(sys *core.System, i int) *deform.Spec {
	if sys != nil {
		return sys.Unit(i).Spec()
	}
	return ps.spec
}

// splitEvents classifies the global event timeline: per-patch sub-events
// (sites inside a patch's static tile) and channel events — the channel
// residue of *removable* events, mapped to the grid cells they block (a
// mild drift excursion in a channel degrades merge fidelity but does not
// forbid routing; only severe defects steal channel qubits). Cell
// granularity follows the route.Grid model: a channel defect blocks the
// tile it lies in. It also counts the removable events reaching a patch —
// the denominator of the detection fraction (channel strikes have no
// syndrome signature to detect).
func splitEvents(lay *layout.Layout, specs []*deform.Spec, events []*event) (perPatch [][]*event, chans []*chanEvent, removable int) {
	perPatch = make([][]*event, len(specs))
	if len(specs) == 1 {
		// A lone patch has no routing channels: it owns every sampled site,
		// strike footprints overhanging its tile included.
		perPatch[0] = events
		for _, e := range events {
			if e.remove {
				removable++
			}
		}
		return perPatch, nil, removable
	}
	pitch2 := 2 * lay.Pitch()
	for _, e := range events {
		inPatch := make([]bool, len(e.sites))
		touches := false
		for p, spec := range specs {
			var sites []lattice.Coord
			var rates []float64
			for i, q := range e.sites {
				if spec.Contains(q) {
					inPatch[i] = true
					sites = append(sites, q)
					rates = append(rates, e.rates[min(i, len(e.rates)-1)])
				}
			}
			if len(sites) == 0 {
				continue
			}
			touches = true
			perPatch[p] = append(perPatch[p], &event{
				start: e.start, end: e.end, sites: sites, rates: rates,
				remove: e.remove, detectedAt: -1,
			})
		}
		if !e.remove {
			continue
		}
		if touches {
			removable++
		}
		var ce *chanEvent
		cellSeen := map[int]bool{}
		for i, q := range e.sites {
			if inPatch[i] {
				continue
			}
			if ce == nil {
				ce = &chanEvent{start: e.start, end: e.end}
			}
			ce.sites = append(ce.sites, q)
			r, c := q.Row/pitch2, q.Col/pitch2
			r = max(0, min(r, lay.Rows-1))
			c = max(0, min(c, lay.Cols-1))
			cell := r*lay.Cols + c
			if !cellSeen[cell] {
				cellSeen[cell] = true
				ce.cells = append(ce.cells, cell)
			}
		}
		if ce != nil {
			chans = append(chans, ce)
		}
	}
	return perPatch, chans, removable
}

// surgerySchedule is the runtime state of the lattice-surgery program.
type surgerySchedule struct {
	ops         []route.CNOT
	done        []bool
	failedOnce  []bool // op missed at least one attempt (Replans accounting)
	completed   int
	attempts    int
	nextAttempt int64
	stepCycles  int64
	grid        *route.Grid
	routeBuf    []int
}

// pending reports whether operations remain to be scheduled (false for a
// nil schedule).
func (s *surgerySchedule) pending() bool {
	return s != nil && s.completed < len(s.ops)
}

// engine is one trajectory's runtime: the invariants every patch shares,
// the patches, the channels and surgery schedule of the floorplan, and the
// Result being accrued.
type engine struct {
	cfg            Config
	arm            string
	mit            deform.Mitigation
	reweightFactor float64
	nominal        *noise.Model
	deviceRates    []noise.SiteRate
	// The pristine patch's nominal DEMs come from the shared cache; every
	// DEM, graph, sampler and stats object the chunks use lives in the
	// trajectory's model table (modelTable). Every chunk of every patch
	// decodes with the one decoder dec, rebound to the chunk's graph.
	cache *sim.DEMCache
	table *modelTable
	dec   decoder.UnionFind

	lay     *layout.Layout
	sys     *core.System // nil for the static arms (untreated, reweight-only)
	patches []*patchState
	chans   []*chanEvent
	sched   *surgerySchedule // nil without a surgery program
	res     *Result
}

// emit sends a trace event labelled with the trajectory's arm and index.
func (e *engine) emit(ev obs.TraceEvent) {
	if e.cfg.Trace == nil {
		return
	}
	ev.Arm, ev.Traj = e.arm, e.cfg.TraceTraj
	e.cfg.Trace.Emit(ev)
}

// run is the engine body behind Run, for a validated config.
func run(cfg Config, mode Mode, seed int64) (*Result, error) {
	lc := cfg.Layout
	if lc == nil {
		lc = &LayoutConfig{Patches: 1}
	}
	n := lc.Patches
	e := &engine{
		cfg: cfg, arm: mode.String(),
		nominal: noise.Uniform(cfg.PhysicalRate),
		cache:   cfg.Cache,
		table:   newModelTable(),
	}
	if e.cache == nil {
		e.cache = sim.SharedDEMCache()
	}

	// Every arm shares the Surf-Deformer floorplan geometry (spacing d+Δd):
	// patch origins, channel widths, and hence the sampled event timeline
	// are identical across arms — the paired-comparison contract. Only the
	// per-patch policy and growth budget differ by arm.
	e.lay = layout.New(layout.SurfDeformer, n, cfg.D, cfg.DeltaD)
	plan := &core.Plan{D: cfg.D, DeltaD: cfg.DeltaD, Layout: e.lay}
	switch mode {
	case ModeUntreated, ModeReweightOnly:
		// static codes, no deformation unit
	case ModeASC, ModeSuperOnly:
		// Both arms keep a zero growth budget: ASC-S only shrinks, the
		// bandage arm only merges in place (its policy is inert — Step is
		// never routed to it, but the unit must exist for Bandage/Unbandage).
		e.sys = plan.NewSystemWith(deform.PolicyASC, deform.UniformBudget(0))
	default:
		e.sys = plan.NewSystemWith(deform.PolicySurfDeformer, deform.UniformBudget(cfg.DeltaD))
	}
	// The arm's §VIII mitigation ladder routes detected elevations: mild
	// ones to the decoder-prior reweight tier, severely noisy qubits to a
	// super-stabilizer bandage, severe regions to deformation. Deforming
	// arms also install the ladder on their runtime system so consumers
	// inspecting the System see the ladder its patches actually run under.
	var err error
	if e.mit, err = armMitigation(cfg, mode); err != nil {
		return nil, err
	}
	if e.sys != nil {
		e.sys.SetMitigation(e.mit)
	}
	e.reweightFactor = cfg.ReweightFactor
	if e.reweightFactor == 0 {
		e.reweightFactor = DefaultReweightFactor
	}

	// Static patch tiles (event classification is by the undeformed tile
	// even while a patch is deformed) and the floorplan bounding box the
	// event timeline and the device are sampled over.
	specs := make([]*deform.Spec, n)
	umin, umax := lattice.Coord{}, lattice.Coord{}
	for i := range specs {
		specs[i] = deform.NewSquareSpec(e.lay.PatchOrigin(i), cfg.D)
		pmin, pmax := specs[i].Bounds()
		if i == 0 {
			umin = pmin
		}
		umax.Row = max(umax.Row, pmax.Row)
		umax.Col = max(umax.Col, pmax.Col)
	}
	eventRNG := rand.New(rand.NewSource(mc.DeriveSeed(seed, saltEvents)))
	events := sampleEvents(cfg, umin, umax, eventRNG)
	bounds := eventBoundaries(cfg, events)
	perPatch, chans, removable := splitEvents(e.lay, specs, events)
	e.chans = chans
	device := sampleDevice(cfg, umin, umax, seed)
	e.deviceRates = deviceRates(device)

	res := &Result{
		Mode:           mode.String(),
		Horizon:        cfg.Horizon,
		FirstFailCycle: -1,
		Events:         len(events),
		RemoveEvents:   removable,
		DeviceDefects:  deviceDefectCount(device),
		Patches:        make([]PatchResult, n),
		ChannelEvents:  len(chans),
	}
	e.res = res

	e.patches = make([]*patchState, n)
	for i, spec := range specs {
		ps := &patchState{spec: spec}
		e.patches[i] = ps
		if e.sys != nil {
			ps.curCode, err = e.sys.Unit(i).Code()
		} else {
			ps.curCode, err = spec.Build()
		}
		if err != nil {
			return nil, err
		}
		ps.pristine = ps.curCode
		res.Patches[i].MinDistance = minDist(ps.curCode)
		if i == 0 || res.Patches[i].MinDistance < res.MinDistance {
			res.MinDistance = res.Patches[i].MinDistance
		}
		// Boot adaptation: the arm's strongest enabled structural tier
		// handles the defective data qubits of the patch's slice of the
		// device before the first cycle (after `pristine` is captured —
		// device-adapted codes are seed-specific and must build through the
		// private cache). A device so broken the patch cannot boot
		// terminates the trajectory as failed from cycle 0.
		bc, bandaged, err := bootAdapt(e.sys, i, e.mit, device, spec.Contains)
		if err != nil {
			return e.terminate(i, 0)
		}
		if bc != nil {
			ps.curCode = bc
			ps.blocked = e.sys.Blocked(i)
			res.Bandages += bandaged
			e.noteDistance(i)
		}
		ps.events = perPatch[i]
		ps.window = detect.NewWindow(cfg.Window, cfg.Threshold)
		ps.window.SetHalflife(cfg.Halflife)
		ps.attributed = map[int32]*attribution{}
		shotSeed := mc.DeriveSeed(seed, saltShots)
		if i > 0 {
			shotSeed = mc.DeriveSeed(seed, saltShots, int64(i))
		}
		ps.shotRNG = rand.New(rand.NewSource(shotSeed))
		for _, ev := range ps.events {
			res.Patches[i].Events++
			if ev.remove {
				res.Patches[i].RemoveEvents++
			}
		}
	}

	// The surgery schedule and its router. Attempts sit at multiples of the
	// lattice-surgery step (d cycles per operation); the chunk loop clamps
	// chunks to attempt boundaries while operations remain.
	if ops, err := lc.scheduleOps(); err != nil {
		return nil, err
	} else if len(ops) > 0 {
		e.sched = &surgerySchedule{
			ops: ops, done: make([]bool, len(ops)), failedOnce: make([]bool, len(ops)),
			stepCycles: int64(cfg.D), nextAttempt: int64(cfg.D),
			grid: route.NewGrid(e.lay.Rows, e.lay.Cols),
		}
		res.OpsTotal = len(ops)
	}

	nextBound := 0
	cycle := int64(0)
	for cycle < cfg.Horizon {
		// Process due boundaries: model changes need no action (each chunk's
		// model is rebuilt from the active set); recovery confirmations act
		// per patch.
		for nextBound < len(bounds) && bounds[nextBound].cycle <= cycle {
			b := bounds[nextBound]
			nextBound++
			if b.kind != boundRecover {
				continue
			}
			for i := range e.patches {
				if err := e.recoverPatch(i, cycle); err != nil {
					return e.terminate(i, cycle)
				}
			}
		}

		// Lattice-surgery attempt at the step boundary: route as many
		// eligible operations as the channels allow.
		if e.sched.pending() && cycle >= e.sched.nextAttempt {
			e.attemptSurgery(cycle)
			e.sched.nextAttempt = cycle + e.sched.stepCycles
		}

		// Chunk length: the scheduling quantum clamped to the next model
		// boundary, the next surgery attempt and the horizon. DEM
		// construction needs at least 2 rounds, so boundaries quantize to 2
		// cycles in the worst case.
		chanBlocked := channelBlockedAt(e.chans, cycle)
		rem := cfg.Horizon - cycle
		if rem < 2 {
			// Credit the trailing cycle without sampling it rather than
			// overshoot the horizon.
			e.elapse(rem, chanBlocked)
			cycle += rem
			break
		}
		chunk := int64(cfg.ChunkRounds)
		if nextBound < len(bounds) {
			chunk = min(chunk, bounds[nextBound].cycle-cycle)
		}
		if e.sched.pending() {
			chunk = min(chunk, e.sched.nextAttempt-cycle)
		}
		chunk = min(max(chunk, 2), rem) // rem >= 2, so the DEM floor still holds

		// Sample phase: every patch's chunk shot through its own cached
		// DEM/sampler/decoder path.
		for i := range e.patches {
			if err := e.sampleChunk(i, cycle, chunk); err != nil {
				return nil, err
			}
			res.Epochs++
		}

		// Feed phase: stream each patch's detection events into its window
		// round by round, interleaved across patches; the first fresh flag
		// on any patch cuts the chunk for all of them. Rounds 0..chunk-1 map
		// one-to-one onto absolute cycles; the chunk's final detector round
		// (the data-readout reconstruction) is an artifact of per-chunk
		// termination and is not fed — the next chunk's round 0 owns that
		// absolute cycle, so no cycle is ever fed from two shots.
		cut := int64(-1)
		for r := int64(0); r < chunk && cut < 0; r++ {
			for _, ps := range e.patches {
				ps.window.Feed(int(cycle+r), ps.byRound[r])
			}
			// The engine acts only once a full window of history exists:
			// during warm-up the effective window is so short that single
			// noise firings cross any rate threshold, and deforming on them
			// would shred a healthy patch. After a deformation a patch
			// dwells one window (quietUntil) — the region's remaining checks
			// flag over several rounds, and dwelling batches them into one
			// refining Step instead of a DEM-rebuilding Step per flag.
			at := cycle + r
			if at < int64(cfg.Window) {
				continue
			}
			for _, ps := range e.patches {
				ps.fresh = nil
				if at < ps.quietUntil {
					continue
				}
				if ps.fresh = newFlags(ps.window, ps.attributed, &ps.flags); len(ps.fresh) != 0 {
					cut = r
				}
			}
		}
		for _, ps := range e.patches {
			ps.window.Trim() // bound detector history (and Flagged cost) per chunk
		}

		// Score phase: a fully elapsed chunk carries a failure verdict per
		// patch; a chunk cut mid-way restarts from the cut and carries none.
		scored := cut < 0
		elapsed := chunk
		if !scored {
			elapsed = min(cut+1, chunk)
		}
		anyFailed := false
		var sampleNs, decodeNs int64
		for i, ps := range e.patches {
			if scored {
				res.ScoredCycles += chunk
				if ps.failed {
					anyFailed = true
					res.Failures++
					res.Patches[i].Failures++
					if res.FirstFailCycle < 0 {
						res.FirstFailCycle = cycle + chunk
					}
				}
			}
			accrueReweight(res, elapsed, ps.overlay, ps.rates, ps.codeSites, cfg.PhysicalRate)
			sampleNs += ps.sampleNs
			decodeNs += ps.decodeNs
		}
		e.elapse(elapsed, chanBlocked)
		cycle += elapsed
		e.emit(obs.TraceEvent{Type: obs.TraceEpoch, Cycle: cycle, Cycles: elapsed,
			Failed: anyFailed, DecodeNs: decodeNs, SampleNs: sampleNs})
		if scored {
			continue
		}

		// Act on every patch that flagged at the cut.
		for i, ps := range e.patches {
			if len(ps.fresh) == 0 {
				continue
			}
			if err := e.mitigate(i, cycle); err != nil {
				return e.terminate(i, cycle)
			}
		}
	}
	res.ElapsedCycles = cycle
	return res, nil
}

// sampleChunk runs patch i's DEM → sampler → decoder chunk and stages the
// results on the patch state.
func (e *engine) sampleChunk(i int, cycle, chunk int64) error {
	cfg, ps := &e.cfg, e.patches[i]
	if ps.sitesOf != ps.curCode {
		ps.codeSites = codeSites(ps.curCode)
		ps.sitesOf = ps.curCode
	}
	ps.rates = mergedRates(activeRates(ps.events, cycle, &ps.rateFold), e.deviceRates, &ps.rateFold)
	rounds := int(chunk)
	// Nominal model first: it is both the decode-side baseline and the
	// patch base of this chunk's site-rate variants (true defect rates on
	// the sample side, estimated-prior overlays on the decode side) —
	// variants clone the probability vector and refold only the mechanisms
	// the changed sites touch instead of re-running the fault enumeration.
	// The pristine code's nominal comes from the shared cache; every other
	// DEM is the model table's own.
	var nom *tableEntry
	var err error
	if ps.curCode == ps.pristine {
		dem, key, err := e.cache.BuildDEMKeyed(ps.curCode, e.nominal, rounds, cfg.Basis)
		if err != nil {
			return err
		}
		nom = e.table.shared(key, dem)
	} else if nom, _, err = e.table.own(nil, ps.curCode, e.nominal, rounds, cfg.Basis); err != nil {
		return err
	}
	coldEntry := func(m *noise.Model) (*tableEntry, error) {
		dem, err := sim.BuildDEM(ps.curCode, owned(m), rounds, cfg.Basis)
		return &tableEntry{dem: dem}, err
	}
	sampleModel, sample := e.nominal, nom
	if len(ps.rates) > 0 {
		sampleModel = e.nominal.WithSiteRates(ps.rates)
		if sample, _, err = e.table.own(nom.dem, ps.curCode, sampleModel, rounds, cfg.Basis); err != nil {
			return err
		}
	}
	// Decode model: nominal priors, plus — when the arm's ladder enables the
	// reweight tier — the detector's estimated site-rate overlay. The
	// overlay derives from window state accumulated by *previous* chunks:
	// the detector, not the event list, drives the decode model, so it is
	// nominal until detection and keeps sampling on true rates.
	overlay := ps.overlayNext[:0]
	if e.mit.ReweightTier && cycle >= int64(cfg.Window) {
		src := nom
		if coldPath {
			if src, err = coldEntry(e.nominal); err != nil {
				return err
			}
		}
		overlay = reweightOverlay(ps.window, src.statsOf(), e.mit,
			cfg.PhysicalRate, e.reweightFactor, cfg.Threshold, cycle >= ps.quietUntil, &ps.overlayWork, overlay)
	}
	changed := !slices.Equal(overlay, ps.overlay)
	if changed {
		ps.overlay, overlay = overlay, ps.overlay
	}
	ps.overlayNext = overlay[:0]
	overlay = ps.overlay
	// The nominal carries no site overrides, so composing the overlay on it
	// (noise.OverlayRates) leaves the overlay itself: the decode model
	// adopts it.
	decodeModel, decode := e.nominal, nom
	overlayBuilt := false
	if len(overlay) > 0 {
		decodeModel = e.nominal.WithSiteRates(overlay)
		if decode, overlayBuilt, err = e.table.own(nom.dem, ps.curCode, decodeModel, rounds, cfg.Basis); err != nil {
			return err
		}
		if overlayBuilt {
			e.res.OverlayDEMBuilds++
		}
	}
	if changed {
		e.res.Reweights++
		if cfg.Trace != nil {
			maxMult := 0.0
			for _, sr := range overlay {
				maxMult = max(maxMult, sr.Rate/cfg.PhysicalRate)
			}
			e.emit(obs.TraceEvent{Type: obs.TraceReweight, Cycle: cycle, Patch: i,
				Overlay: len(overlay), MaxMult: maxMult, DEMBuild: overlayBuilt})
		}
	}
	// The cold path decodes and samples from fresh entries of fresh DEMs,
	// with a fresh decoder.
	dec := &e.dec
	if coldPath {
		if sample, err = coldEntry(sampleModel); err != nil {
			return err
		}
		if decode, err = coldEntry(decodeModel); err != nil {
			return err
		}
		dec = decoder.NewUnionFind(decode.graphOf(decode))
	} else {
		dec.Rebind(decode.graphOf(nom))
	}
	sampler := sample.samplerOf()
	// Shot timings are measured only under tracing (clock reads per chunk
	// otherwise saved) and flow only into trace events, never into the
	// Result — wall-clock is not deterministic.
	var flagged []int32
	var obsFlip bool
	if cfg.Trace != nil {
		t0 := time.Now()
		flagged, obsFlip = sampler.Shot(ps.shotRNG)
		t1 := time.Now()
		ps.failed = dec.DecodeToObs(flagged) != obsFlip
		ps.sampleNs, ps.decodeNs = t1.Sub(t0).Nanoseconds(), time.Since(t1).Nanoseconds()
	} else {
		flagged, obsFlip = sampler.Shot(ps.shotRNG)
		ps.failed = dec.DecodeToObs(flagged) != obsFlip
	}
	if correctionLog != nil {
		*correctionLog = append(*correctionLog, slices.Clone(dec.DecodeToEdges(flagged)))
	}
	ps.byRound = roundStream(sample.dem, flagged, chunk, &ps.scratch)
	ps.dem = sample.dem
	return nil
}

// mitigate acts on patch i's fresh flags at the cut: it attributes them to
// an estimated hardware region, routes the region through the arm's ladder
// and applies the structural tier — removal (Step) or a super-stabilizer
// bandage (Super). Static arms only observe. An error means the patch
// severed.
func (e *engine) mitigate(i int, cycle int64) error {
	ps, res, sys := e.patches[i], e.res, e.sys
	ps.quietUntil = cycle + int64(e.cfg.Window)
	before := res.Detected
	estimate := attribute(ps.dem, ps.fresh, ps.attributed, ps.events, cycle, res)
	res.Patches[i].Detected += res.Detected - before
	routeRemove := sys != nil && e.mit.Handles(defect.SeverityRemove)
	routeSuper := sys != nil && !routeRemove && e.mit.Handles(defect.SeveritySuper)
	if e.cfg.Trace != nil {
		e.emit(obs.TraceEvent{Type: obs.TraceDetect, Cycle: cycle, Patch: i,
			Flags: len(ps.fresh), Region: len(estimate)})
		sev := "observe"
		switch {
		case routeRemove:
			sev = "remove"
		case routeSuper:
			sev = "super"
		}
		e.emit(obs.TraceEvent{Type: obs.TraceMitigate, Cycle: cycle, Patch: i, Severity: sev})
	}
	var st *deform.StepResult
	var err error
	deformed := false
	switch {
	case routeRemove:
		if st, err = sys.Step(i, estimate); err == nil && (len(st.Defects) > 0 || st.Enlarged) {
			deformed = true
			res.Deformations++
			res.Patches[i].Deformations++
		}
	case routeSuper:
		// Bandage tier: merge the estimated region's data qubits into
		// super-stabilizers in place (check-site estimates have no bandage
		// analogue — a broken measure qubit is a rate problem, not a
		// data-qubit merge). Sites the bandage construction cannot merge
		// (boundary geometry) are skipped, not escalated — this arm never
		// removes.
		if st, err = sys.Super(i, dataSites(estimate)); err == nil && len(st.Defects) > 0 {
			deformed = true
			res.Bandages += len(st.Defects)
		}
	default:
		return nil
	}
	if err != nil {
		return err
	}
	ps.curCode = st.Code
	ps.blocked = sys.Blocked(i)
	e.noteDistance(i)
	if deformed {
		e.emit(obs.TraceEvent{Type: obs.TraceDeform, Cycle: cycle, Patch: i,
			Defects: len(st.Defects), Enlarged: st.Enlarged, Distance: minDist(ps.curCode)})
	}
	return nil
}

// recoverPatch runs patch i's recovery confirmation. Every arm expires the
// subsided attributions (by the confirmation point the stale firings have
// aged out of the window) so later events are re-detectable; the
// structural tiers also undo their action on the subsided sites — removal
// arms reincorporate them, the bandage arm releases their
// super-stabilizers. Boot-adaptation sites never enter the attribution
// bookkeeping, so they stay permanent. An error means the patch severed.
func (e *engine) recoverPatch(i int, cycle int64) error {
	ps, sys := e.patches[i], e.sys
	sites := subsidedSites(ps.events, ps.attributed, cycle)
	if len(sites) == 0 || sys == nil {
		return nil
	}
	// Both calls rebuild through Unit.Code, not Spec().Build(), so permanent
	// bandages (boot adaptation) survive the rebuild; st.Code is that code.
	var st *deform.StepResult
	var err error
	recovered := 0
	switch {
	case e.mit.Handles(defect.SeverityRemove):
		if st, err = sys.Recover(i, sites); err != nil {
			return err
		}
		recovered = len(sites)
	case e.mit.Handles(defect.SeveritySuper):
		if st, err = sys.Unbandage(i, sites); err != nil {
			return err
		}
		recovered = len(st.Defects)
	}
	if recovered == 0 {
		return nil
	}
	e.res.Recoveries++
	e.res.Patches[i].Recoveries++
	ps.curCode = st.Code
	ps.blocked = sys.Blocked(i)
	e.noteDistance(i)
	e.emit(obs.TraceEvent{Type: obs.TraceRecover, Cycle: cycle, Patch: i,
		Sites: recovered, Distance: minDist(ps.curCode)})
	return nil
}

// noteDistance folds patch i's current code distance into the per-patch
// and aggregate minima.
func (e *engine) noteDistance(i int) {
	pr := &e.res.Patches[i]
	pr.MinDistance = min(pr.MinDistance, minDist(e.patches[i].curCode))
	e.res.MinDistance = min(e.res.MinDistance, pr.MinDistance)
}

// elapse accrues the per-cycle aggregates of every patch, and of the
// channels, over an elapsed stretch.
func (e *engine) elapse(cycles int64, chanBlocked bool) {
	for i, ps := range e.patches {
		if ps.blocked {
			e.res.BlockedCycles += cycles
			e.res.Patches[i].BlockedCycles += cycles
		}
		e.res.DistanceCycles += int64(minDist(ps.curCode)) * cycles
	}
	if chanBlocked {
		e.res.ChannelBlockedCycles += cycles
	}
}

// terminate ends a trajectory whose patch i severed: the remaining horizon
// is unprotected, so the trajectory counts as failed from the severing cycle
// onward. The error that severed it is consumed — a severed patch is a
// measured outcome of the arm (ASC-S severs more), not a simulation fault.
// Like MemorySweep's severed rows, this conservatively classifies *any*
// removal/enlargement/rebuild error as severing; deform exposes no sentinel
// distinguishing a disconnected patch from other failures.
func (e *engine) terminate(i int, cycle int64) (*Result, error) {
	res := e.res
	res.Patches[i].Severed = true
	res.Patches[i].Failures++
	res.Patches[i].MinDistance = 0
	res.Severed = true
	res.Failures++
	if res.FirstFailCycle < 0 {
		res.FirstFailCycle = cycle
	}
	res.ElapsedCycles = cycle
	res.MinDistance = 0
	return res, nil
}

// channelBlockedAt reports whether any channel event blocks a cell at the
// cycle. Events change only at chunk-clamping boundaries, so the answer is
// constant within a chunk.
func channelBlockedAt(chans []*chanEvent, cycle int64) bool {
	for _, ce := range chans {
		if cycle >= ce.start && cycle < ce.end {
			return true
		}
	}
	return false
}

// attemptSurgery runs one routing attempt of the schedule: refresh the
// grid's blockage (channel defects plus patches spilled past their
// reserve), route the eligible operations edge-disjointly, and gate merges
// between adjacent patches on the surgery.MergeBlocked strip check against
// the live (deformed) specs.
func (e *engine) attemptSurgery(cycle int64) {
	sched, grid, res := e.sched, e.sched.grid, e.res
	grid.ResetBlocked()
	for _, ce := range e.chans {
		if cycle < ce.start || cycle >= ce.end {
			continue
		}
		for _, cell := range ce.cells {
			grid.SetBlocked(cell, true)
		}
	}
	if e.sys != nil {
		for i := range e.patches {
			if e.sys.Blocked(i) {
				grid.SetBlocked(i, true)
			}
		}
	}

	// Eligibility: program order per patch — an operation waits until no
	// earlier pending operation uses either of its patches.
	var pending []route.CNOT
	var pendIdx []int
	busy := map[int]bool{}
	for k, op := range sched.ops {
		if sched.done[k] {
			continue
		}
		if busy[op.Control] || busy[op.Target] {
			busy[op.Control], busy[op.Target] = true, true
			continue
		}
		busy[op.Control], busy[op.Target] = true, true
		pending = append(pending, op)
		pendIdx = append(pendIdx, k)
	}
	executed := 0
	if len(pending) > 0 {
		sched.routeBuf = grid.RoutePaths(pending, sched.attempts, sched.routeBuf[:0])
		routedSet := make(map[int]bool, len(sched.routeBuf))
		for _, ri := range sched.routeBuf {
			routedSet[ri] = true
			k := pendIdx[ri]
			if e.mergeBlocked(pending[ri], cycle) {
				res.MergeBlockedOps++
				sched.failedOnce[k] = true
				continue
			}
			sched.done[k] = true
			sched.completed++
			res.OpsCompleted++
			if sched.failedOnce[k] {
				res.Replans++
			}
			executed++
		}
		for ri, k := range pendIdx {
			if !routedSet[ri] && !sched.done[k] {
				sched.failedOnce[k] = true
			}
		}
		if executed == 0 {
			res.StallCycles += sched.stepCycles
		}
	}
	sched.attempts++
	e.emit(obs.TraceEvent{Type: obs.TraceSurgery, Cycle: cycle, Pending: len(pending), Routed: executed})
	if !sched.pending() && !res.ProgramDone {
		res.ProgramDone = true
		res.ProgramDoneCycle = cycle
	}
}

// mergeBlocked applies the lattice-surgery strip check to an operation
// between horizontally adjacent patches: the merge must survive the active
// channel defects in the strip without severing or dropping below the
// operands' current minimum distance. Non-adjacent operations route through
// multiple channels and are governed by the grid alone.
func (e *engine) mergeBlocked(op route.CNOT, cycle int64) bool {
	ra, ca := e.lay.PatchCell(op.Control)
	rb, cb := e.lay.PatchCell(op.Target)
	if ra != rb || (ca-cb != 1 && cb-ca != 1) {
		return false
	}
	li, ri := op.Control, op.Target
	if ca > cb {
		li, ri = ri, li
	}
	left := e.patches[li].liveSpec(e.sys, li)
	right := e.patches[ri].liveSpec(e.sys, ri)
	_, lmax := left.Bounds()
	rmin, _ := right.Bounds()
	var strip []lattice.Coord
	for _, ce := range e.chans {
		if cycle < ce.start || cycle >= ce.end {
			continue
		}
		for _, q := range ce.sites {
			if q.Col > lmax.Col && q.Col < rmin.Col &&
				q.Row >= left.Origin.Row && q.Row <= lmax.Row {
				strip = append(strip, q)
			}
		}
	}
	minDistance := min(minDist(e.patches[li].curCode), minDist(e.patches[ri].curCode))
	blocked, _ := surgery.MergeBlocked(left, right, strip, minDistance)
	return blocked
}
