// Package traj is the closed-loop runtime trajectory engine: it simulates
// logical patches over thousands of QEC cycles under stochastic
// dynamic-defect arrivals and runs the paper's full fig. 5 loop at scale —
// detect a defect from the syndrome stream, deform adaptively, recover when
// it subsides. There is one engine (engine.go): a single patch is the
// 1-tile floorplan, and Config.Layout widens it to N patches with routing
// channels and a lattice-surgery schedule.
//
// A trajectory is segmented into code epochs: maximal stretches of cycles
// over which both the codes and the noise model are constant. An epoch ends
// when a window detector flags a new region (a deformation unit steps),
// when a defect event starts or expires (the noise model changes), or when a
// subsided event's recovery is confirmed (a unit shrinks back). Within an
// epoch, rounds are simulated in chunks through the DEM → sampler →
// decoder path of the trajectory's model table (table.go): the pristine
// code's nominal DEMs come from the shared sim.DEMCache, so they cost one
// build for the whole trajectory fan-out; every other DEM, and every graph,
// sampler and stats object, belongs to the trajectory.
//
// Determinism: all randomness derives from the trajectory seed via
// mc.DeriveSeed streams (event timeline, device, and one syndrome-shot
// stream per patch). Nothing depends on scheduling, worker count, or cache
// state, so a trajectory's Result is a pure function of (Config, Mode,
// seed) — the property the scan layer relies on for bit-identical parallel
// and resumed runs.
//
// Scale caveat (DESIGN.md §1 applies): cosmic-ray strike footprints are
// scaled down with the code distances so that a d=9 patch relates to its
// strikes the way the paper's d=27 patches relate to radius-2 strikes.
package traj

import (
	"fmt"
	"math/rand"
	"sort"

	"surfdeformer/internal/code"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/detect"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
)

// Engine-level metrics; the per-arm counters (traj.<arm>.deformations and
// friends) are registered lazily per mode in Run, once per trajectory —
// nowhere near the chunk hot path.
var (
	obsTrajectories = obs.Default().Counter("traj.trajectories")
	obsTrajCycles   = obs.Default().Counter("traj.cycles")
)

// Mode selects the mitigation arm of a trajectory.
type Mode int

const (
	// ModeSurfDeformer runs the paper's full loop: adaptive removal plus
	// enlargement within the Δd reserve.
	ModeSurfDeformer Mode = iota
	// ModeASC runs the ASC-S policy: super-stabilizer removal only, no
	// enlargement (the patch only ever shrinks).
	ModeASC
	// ModeUntreated leaves the code untouched; the decoder keeps its nominal
	// priors while defects rage. The detector still runs so latency is
	// comparable, but nothing acts on it.
	ModeUntreated
	// ModeReweightOnly is the §VIII reweight-tier ablation: the code is
	// never deformed, but the detector's sustained-elevation estimates are
	// folded into the decode model's priors (detect.EstimateRates →
	// noise.Model.OverlaySiteRates). Sampling stays on the true rates, so
	// the arm measures honest estimated-prior decoding — the cheap first
	// response the paper prescribes for mild drift.
	ModeReweightOnly
	// ModeSuperOnly is the bandage-tier ablation (arXiv 2404.18644): the
	// patch is never shrunk — every severe region the ladder would remove
	// is instead merged into super-stabilizer bandages in place
	// (deform.Unit.Bandage), released when the event subsides. Fabrication
	// defects found at boot are bandaged permanently.
	ModeSuperOnly
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSurfDeformer:
		return "surf-deformer"
	case ModeASC:
		return "asc-s"
	case ModeUntreated:
		return "untreated"
	case ModeReweightOnly:
		return "reweight-only"
	case ModeSuperOnly:
		return "super-only"
	}
	return "invalid"
}

// Config parameterizes a trajectory. The zero value is not runnable; use
// DefaultConfig or QuickConfig and override.
type Config struct {
	// D is the code distance of the patch; DeltaD its growth reserve.
	D      int
	DeltaD int
	// Horizon is the trajectory length in QEC cycles (1 cycle = 1 round).
	Horizon int64
	// ChunkRounds is the scheduling quantum: at most this many rounds are
	// sampled per DEM shot before the loop re-examines the detector. Epoch
	// boundaries clamp chunks, so a smaller value tightens the reaction
	// latency floor at the cost of more shots.
	ChunkRounds int
	// Window and Threshold parameterize the sliding-window detector.
	Window    int
	Threshold float64
	// ReweightFactor gates the reweight tier: an observable's estimated
	// rate multiplier must reach this factor before its elevation is folded
	// into the decode priors (0 selects DefaultReweightFactor; must
	// otherwise exceed 1). Only arms whose mitigation ladder enables the
	// reweight tier consult it.
	ReweightFactor float64
	// PhysicalRate is the base physical error rate (0 = the paper's 1e-3).
	PhysicalRate float64
	// Basis selects the protected memory (default lattice.ZCheck).
	Basis lattice.CheckType

	// Cosmic, Leakage and Drift are the defect processes; nil disables a
	// species. Drift events stay below the removal severity threshold and
	// exercise the decoder-prior-mismatch regime without deformation.
	Cosmic  *defect.Model
	Leakage *defect.LeakageModel
	Drift   *defect.DriftModel

	// Device, when non-nil, is the fabrication-defect model (Siegel et
	// al., arXiv 2211.08468): each trajectory samples a permanent defect
	// map from it on a dedicated seed stream (paired across arms) and runs
	// the dynamic defect processes on the degraded device. Defective data
	// qubits are adapted around at boot by the arm's mitigation ladder
	// (bandaged or removed); defective syndrome sites elevate rates only.
	Device *defect.DeviceModel
	// SuperThreshold overrides the ladder's super-stabilizer severity
	// boundary (0 keeps defect.SuperThreshold; the resolved value must stay
	// below the removal threshold — misordered ladders are rejected).
	SuperThreshold float64
	// Halflife enables exponential temporal weighting in the detector's
	// rate estimator, in rounds (0 = uniform window, bit-identical to the
	// unweighted estimator; negative is rejected). Flagging is unaffected.
	// See detect.Window.SetHalflife.
	Halflife float64

	// Layout, when non-nil, widens the trajectory to a floorplan: N patches
	// on a routing grid, defect arrivals landing on any patch or channel,
	// and an optional lattice-surgery schedule routed through the channels.
	// Nil runs one patch (the 1-tile floorplan) and omits the per-patch
	// Result slices; a 1-patch layout without a program differs from it
	// only by carrying them (test-pinned).
	Layout *LayoutConfig

	// Cache overrides the process-shared DEM cache (tests).
	Cache *sim.DEMCache

	// Trace, when non-nil, receives one structured JSONL event per epoch
	// transition (detect → mitigate → deform/reweight → recover, plus
	// per-chunk epoch events and an end summary). Tracing is
	// observation-only: results are bit-identical with it on or off.
	// TraceTraj labels the emitted events with this trajectory's index
	// within its scan, so interleaved parallel trajectories stay
	// attributable in a shared trace file. Neither field enters the
	// experiment layer's store keys.
	Trace     *obs.Tracer
	TraceTraj int
}

// DefaultConfig returns the CLI-scale scenario: a d=9 patch over a 6000-
// cycle horizon with accelerated defect processes sized so a trajectory
// sees a handful of events of each species. Acceleration compresses the
// paper's seconds-scale arrival times onto a simulable horizon, exactly as
// the Q3DE burst-error study compresses cosmic-ray rates.
func DefaultConfig(d int) Config {
	cosmic := defect.Paper()
	cosmic.Radius = 1            // scaled-down strike footprint (5 sites) to match scaled-down d
	cosmic.DurationCycles = 1200 // compressed from 25k cycles
	cosmic.RatePerQubit = 1.2    // accelerated from 3.85e-3/s: ~1.3 strikes per horizon
	leak := defect.DefaultLeakage()
	leak.RatePerQubit = 1e-6 // ~1 leakage event per horizon on a d=9 patch
	drift := defect.DefaultDrift()
	drift.RatePerQubit = 1.0 // accelerated: ~1 drift excursion per horizon
	drift.MeanDurationCycles = 2000
	return Config{
		D:            d,
		DeltaD:       2,
		Horizon:      6000,
		ChunkRounds:  8,
		Window:       20,
		Threshold:    0.25,
		PhysicalRate: noise.DefaultPhysical,
		Basis:        lattice.ZCheck,
		Cosmic:       cosmic,
		Leakage:      leak,
		Drift:        drift,
	}
}

// DriftOnlyConfig returns the decoder-prior-mismatch scenario: no cosmic
// strikes, no leakage — only sustained strong drift excursions that stay
// below the removal severity threshold, so the only defense an arm can
// mount is its decode prior. Durations outlast the horizon on purpose:
// the reweight tier targets the paper's slow-recalibration drift regime,
// where the window estimator converges on a stable pattern (under rapid
// event churn the estimate is chronically one window stale and priors
// help far less — DESIGN.md §9). The paired-arm reweight test and the
// reweight benchmarks (BenchmarkReweight, cmd/bench -reweight) all run
// this one scenario, so tuning it stays a single edit.
func DriftOnlyConfig() Config {
	cfg := QuickConfig()
	cfg.Horizon = 1200
	cfg.Cosmic = nil
	cfg.Leakage = nil
	cfg.Drift.RatePerQubit = 100
	cfg.Drift.Multiplier = 60 // drifted rate 0.06: elevated but < RemoveThreshold
	cfg.Drift.MeanDurationCycles = 5000
	return cfg
}

// QuickConfig returns the test-scale scenario (d=5, short horizon).
func QuickConfig() Config {
	cfg := DefaultConfig(5)
	cfg.Horizon = 400
	cfg.ChunkRounds = 6
	cfg.Cosmic.DurationCycles = 150
	cfg.Cosmic.RatePerQubit = 60 // ~1.5 strikes on the short horizon
	cfg.Leakage.RatePerQubit = 2e-5
	cfg.Leakage.MeanDurationCycles = 80
	cfg.Drift.RatePerQubit = 8
	cfg.Drift.MeanDurationCycles = 150
	return cfg
}

// Result is the outcome of one trajectory. Every field is integral or a
// float64 — both JSON round-trip exactly (Go emits the shortest
// representation that parses back to the same float64) — the property the
// persistent store's resume path needs for byte-identical replays.
type Result struct {
	Mode    string `json:"mode"`
	Horizon int64  `json:"horizon"`

	// FirstFailCycle is the cycle by which the first logical failure had
	// occurred (-1 if the trajectory survived the horizon). ElapsedCycles is
	// how far the trajectory ran (< Horizon only when the patch severed).
	FirstFailCycle int64 `json:"first_fail_cycle"`
	ElapsedCycles  int64 `json:"elapsed_cycles"`
	// Failures counts failed chunks; ScoredCycles the cycles of all scored
	// (fully elapsed) chunks — partial chunks cut by an epoch boundary carry
	// no failure verdict.
	Failures     int   `json:"failures"`
	ScoredCycles int64 `json:"scored_cycles"`

	// Events counts defect events striking the patch; RemoveEvents those
	// severe enough to require deformation; Detected how many of the latter
	// the window detector localized; LatencyCycles the summed onset→flag
	// latency over the detected ones.
	Events        int   `json:"events"`
	RemoveEvents  int   `json:"remove_events"`
	Detected      int   `json:"detected"`
	LatencyCycles int64 `json:"latency_cycles"`

	// Deformations counts detector-triggered Step calls; Recoveries counts
	// confirmed-recovery Recover calls; Severed reports that removal
	// disconnected the patch and ended the trajectory.
	Deformations int  `json:"deformations"`
	Recoveries   int  `json:"recoveries"`
	Severed      bool `json:"severed,omitempty"`

	// DeviceDefects counts the fabrication-defective sites of the sampled
	// device (data plus syndrome; identical across paired arms). Bandages
	// counts the data qubits currently merged into super-stabilizer
	// bandages at boot, plus each later bandage operation's fresh sites.
	// Both are zero (and omitted) when Config.Device is nil and the super
	// tier never acts — old single-device rows keep their identity.
	DeviceDefects int `json:"device_defects,omitempty"`
	Bandages      int `json:"bandages,omitempty"`

	// BlockedCycles counts cycles during which the patch spilled past its
	// Δd reserve and blocked its communication channels; DistanceCycles is
	// the time-weighted sum of min(dX, dZ); MinDistance the lowest distance
	// the code passed through; Epochs the number of sampled chunks.
	BlockedCycles  int64 `json:"blocked_cycles"`
	DistanceCycles int64 `json:"distance_cycles"`
	MinDistance    int   `json:"min_distance"`
	Epochs         int   `json:"epochs"`

	// Reweights counts decoder-prior updates: chunks whose estimated-prior
	// overlay differed from the previous chunk's (including resets back to
	// nominal). ReweightedCycles counts cycles decoded under estimated
	// priors; MismatchCycles counts cycles decoded with the nominal prior
	// while elevated true rates were active on the patch — the
	// prior-mismatch regime reweighting exists to shrink. RateErrCycles is
	// the cycle-weighted mean absolute error between estimated and true
	// per-site rates over the reweighted cycles (divide by ReweightedCycles
	// for the mean error).
	Reweights        int     `json:"reweights,omitempty"`
	ReweightedCycles int64   `json:"reweighted_cycles,omitempty"`
	MismatchCycles   int64   `json:"mismatch_cycles,omitempty"`
	RateErrCycles    float64 `json:"rate_err_cycles,omitempty"`

	// OverlayDEMBuilds counts decode-DEM constructions forced by
	// estimated-prior overlays: reweight-tier chunks whose overlaid decode
	// model was not already in this trajectory's model table. This is the
	// dominant wall-clock cost of the reweight tier (its cycles/sec
	// regression — see DESIGN.md §10) made countable. It is deterministic
	// for fixed (Config, Mode, seed): the table starts empty per trajectory
	// and its bound, hotCacheLimit, is fixed.
	OverlayDEMBuilds int `json:"overlay_dem_builds,omitempty"`

	// Layout-level fields, populated only when Config.Layout is non-nil.
	// Patches carries the per-patch slices of the aggregate counters above;
	// the remaining fields are the router and lattice-surgery aggregates.
	// The cycle-weighted aggregates (ScoredCycles, BlockedCycles,
	// DistanceCycles) are summed over patches, i.e. measured in
	// patch-cycles.
	Patches []PatchResult `json:"patches,omitempty"`
	// ChannelEvents counts defect events with sites in the routing channels
	// (outside every patch tile; a lone patch has no channels and owns every
	// site); ChannelBlockedCycles the cycles during
	// which at least one channel cell was blocked by such an event.
	ChannelEvents        int   `json:"channel_events,omitempty"`
	ChannelBlockedCycles int64 `json:"channel_blocked_cycles,omitempty"`
	// OpsTotal/OpsCompleted count the lattice-surgery schedule;
	// ProgramDone reports completion within the horizon, at
	// ProgramDoneCycle. StallCycles accrues d cycles per routing attempt
	// with eligible but unroutable operations; Replans counts operations
	// that executed after at least one failed attempt; MergeBlockedOps
	// counts routed merges rejected by the surgery.MergeBlocked check.
	OpsTotal         int   `json:"ops_total,omitempty"`
	OpsCompleted     int   `json:"ops_completed,omitempty"`
	ProgramDone      bool  `json:"program_done,omitempty"`
	ProgramDoneCycle int64 `json:"program_done_cycle,omitempty"`
	StallCycles      int64 `json:"stall_cycles,omitempty"`
	Replans          int   `json:"replans,omitempty"`
	MergeBlockedOps  int   `json:"merge_blocked_ops,omitempty"`
}

// PatchResult is one patch's slice of a layout-level Result; the aggregate
// fields of Result sum these (plus the channel/router fields, which have no
// per-patch decomposition).
type PatchResult struct {
	Events        int   `json:"events"`
	RemoveEvents  int   `json:"remove_events,omitempty"`
	Detected      int   `json:"detected,omitempty"`
	Failures      int   `json:"failures,omitempty"`
	Deformations  int   `json:"deformations,omitempty"`
	Recoveries    int   `json:"recoveries,omitempty"`
	BlockedCycles int64 `json:"blocked_cycles,omitempty"`
	MinDistance   int   `json:"min_distance"`
	Severed       bool  `json:"severed,omitempty"`
}

// Stream salts for the per-trajectory seed derivation (negative so they can
// never collide with engine shard indices; see mc.DeriveSeed).
const (
	saltEvents = int64(-0x7E01)
	saltShots  = int64(-0x7E02)
	saltDevice = int64(-0x7E03)
)

// coldPath turns the chunk loop's reuse layers off for the differential
// tests. Each chunk still makes its shared-cache and model-table lookups,
// so OverlayDEMBuilds and the cache counters accrue as on the warm path,
// but it samples and decodes from objects built from scratch: sim.BuildDEM
// for the nominal, sample and decode models, a fresh decoding graph and
// union-find, a fresh sampler and fresh observable stats. Results must not
// move.
var coldPath = false

// correctionLog, when non-nil, receives every chunk's correction (the
// decoder's edge set for the chunk's shot) in decode order, for the same
// tests: one shot decides a chunk, and a chunk cut short by an epoch
// boundary leaves no verdict in the Result, so a decode against a stale
// graph can leave the Result intact while its correction differs.
var correctionLog *[][]int32

// event is one defect occurrence normalized across species.
type event struct {
	start, end int64
	sites      []lattice.Coord
	rates      []float64
	remove     bool  // severity: needs deformation (vs decoder reweighting)
	detectedAt int64 // first cycle a flag matched this event (-1 until then)

	vec []noise.SiteRate // siteRates' memo
}

// siteRates returns the event's sorted site-rate vector: each site once,
// at the largest of its rates, and only where that rate is positive — what
// writing the event into an empty max-wins map leaves
// (noise.CompactRates). Computed on first use.
func (e *event) siteRates() []noise.SiteRate {
	if e.vec == nil {
		vec := make([]noise.SiteRate, len(e.sites))
		for i, q := range e.sites {
			vec[i] = noise.SiteRate{Q: q, Rate: e.rates[i]}
		}
		e.vec = noise.CompactRates(vec)
	}
	return e.vec
}

// boundary kinds, processed at chunk scheduling points.
const (
	boundModel   = iota // an event starts or ends: the noise model changes
	boundRecover        // a subsided event's recovery is confirmed
)

type boundary struct {
	cycle int64
	kind  int
}

// Run simulates one trajectory and returns its outcome. The result is a
// pure function of (cfg, mode, seed) — the registry counters and trace
// events it feeds only observe that result, never shape it.
func Run(cfg Config, mode Mode, seed int64) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res, err := run(cfg, mode, seed)
	if err != nil {
		return nil, err
	}
	if cfg.Layout == nil {
		res.Patches = nil // single-patch results keep their per-patch-free shape
	}
	obsTrajectories.Inc()
	obsTrajCycles.Add(res.ElapsedCycles)
	prefix := "traj." + mode.String() + "."
	r := obs.Default()
	r.Counter(prefix + "deformations").Add(int64(res.Deformations))
	r.Counter(prefix + "recoveries").Add(int64(res.Recoveries))
	r.Counter(prefix + "reweights").Add(int64(res.Reweights))
	r.Counter(prefix + "overlay_dem_builds").Add(int64(res.OverlayDEMBuilds))
	if res.OpsTotal > 0 {
		r.Counter(prefix + "ops_completed").Add(int64(res.OpsCompleted))
		r.Counter(prefix + "stall_cycles").Add(res.StallCycles)
		r.Counter(prefix + "replans").Add(int64(res.Replans))
		r.Counter(prefix + "merge_blocked").Add(int64(res.MergeBlockedOps))
	}
	cfg.Trace.Emit(obs.TraceEvent{
		Type: obs.TraceEnd, Cycle: res.ElapsedCycles, Arm: res.Mode, Traj: cfg.TraceTraj,
		Epochs: res.Epochs, Failures: res.Failures,
		Deformations: res.Deformations, Recoveries: res.Recoveries,
		Reweights: res.Reweights, OverlayBuilds: res.OverlayDEMBuilds,
		Severed: res.Severed,
	})
	return res, nil
}

// validate rejects configs the engine cannot run. Every float check is
// written as the negation of the valid range, so a NaN fails it.
func (cfg Config) validate() error {
	switch {
	case cfg.D < 3:
		return fmt.Errorf("traj: distance %d too small", cfg.D)
	case cfg.DeltaD < 0:
		return fmt.Errorf("traj: negative growth reserve Δd = %d", cfg.DeltaD)
	case cfg.Horizon < 2:
		return fmt.Errorf("traj: horizon %d too short", cfg.Horizon)
	case cfg.ChunkRounds < 2:
		return fmt.Errorf("traj: chunk of %d rounds (DEMs need ≥ 2)", cfg.ChunkRounds)
	case cfg.Window < 1 || !(cfg.Threshold > 0 && cfg.Threshold < 1):
		return fmt.Errorf("traj: invalid detector window %d/threshold %g", cfg.Window, cfg.Threshold)
	case !(cfg.PhysicalRate > 0 && cfg.PhysicalRate < 0.5):
		return fmt.Errorf("traj: physical rate %g", cfg.PhysicalRate)
	case cfg.ReweightFactor != 0 && !(cfg.ReweightFactor > 1):
		return fmt.Errorf("traj: reweight factor %g must exceed 1 (0 selects the default)", cfg.ReweightFactor)
	case !(cfg.Halflife >= 0):
		return fmt.Errorf("traj: estimator half-life %g must be non-negative", cfg.Halflife)
	}
	if dv := cfg.Device; dv != nil {
		switch {
		case !(dv.QubitDefectRate >= 0 && dv.QubitDefectRate <= 1):
			return fmt.Errorf("traj: device qubit defect rate %g outside [0, 1]", dv.QubitDefectRate)
		case !(dv.CouplerDefectRate >= 0 && dv.CouplerDefectRate <= 1):
			return fmt.Errorf("traj: device coupler defect rate %g outside [0, 1]", dv.CouplerDefectRate)
		case !(dv.ErrorRate >= 0 && dv.ErrorRate <= 0.5):
			return fmt.Errorf("traj: device error rate %g outside [0, 0.5]", dv.ErrorRate)
		}
	}
	if lc := cfg.Layout; lc != nil {
		switch {
		case lc.Patches < 1:
			return fmt.Errorf("traj: layout needs at least 1 patch, got %d", lc.Patches)
		case lc.Patches > 256:
			return fmt.Errorf("traj: layout of %d patches exceeds the 256-patch bound", lc.Patches)
		case (lc.Program != "" || lc.Ops > 0) && lc.Patches < 2:
			return fmt.Errorf("traj: a surgery schedule needs at least 2 patches")
		case lc.Ops < 0:
			return fmt.Errorf("traj: negative surgery op count %d", lc.Ops)
		}
		if _, err := lc.program(); err != nil {
			return err
		}
	}
	return nil
}

func minDist(c *code.Code) int {
	dx, dz := c.DistanceX(), c.DistanceZ()
	if dx < dz {
		return dx
	}
	return dz
}

// sampleEvents draws the merged, time-sorted defect timeline of all enabled
// species over the horizon.
func sampleEvents(cfg Config, min, max lattice.Coord, rng *rand.Rand) []*event {
	var out []*event
	if cfg.Cosmic != nil {
		s := defect.NewSampler(cfg.Cosmic, min, max)
		for _, e := range s.SampleWindow(cfg.Horizon, rng) {
			rates := make([]float64, len(e.Region))
			for i := range rates {
				rates[i] = cfg.Cosmic.ErrorRate
			}
			out = append(out, &event{
				start: e.StartCycle, end: e.EndCycle,
				sites: e.Region, rates: rates,
				remove:     defect.Classify(cfg.Cosmic.ErrorRate) == defect.SeverityRemove,
				detectedAt: -1,
			})
		}
	}
	sites := defect.Sites(min, max)
	if cfg.Leakage != nil {
		for _, e := range cfg.Leakage.SampleLeakage(sites, cfg.Horizon, rng) {
			r := make([]float64, len(e.Region))
			for i, q := range e.Region {
				if q == e.Center {
					r[i] = 0.5 // the leaked qubit itself is inoperable
				} else {
					r[i] = cfg.Leakage.NeighbourRate
				}
			}
			out = append(out, &event{
				start: e.StartCycle, end: e.EndCycle,
				sites: e.Region, rates: r,
				remove:     defect.Classify(cfg.Leakage.NeighbourRate) == defect.SeverityRemove,
				detectedAt: -1,
			})
		}
	}
	if cfg.Drift != nil {
		drifted := cfg.Drift.DriftedRate(cfg.PhysicalRate)
		for _, e := range cfg.Drift.SampleDrift(sites, cfg.Horizon, 1e-6, rng) {
			out = append(out, &event{
				start: e.StartCycle, end: e.EndCycle,
				sites: e.Region, rates: []float64{drifted},
				remove:     defect.Classify(drifted) == defect.SeverityRemove,
				detectedAt: -1,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end < b.end
		}
		return a.sites[0].Less(b.sites[0])
	})
	return out
}

// eventBoundaries lists the chunk-clamping cycle boundaries: every event
// start and end (the noise model changes there) plus, for removable events,
// a recovery confirmation one detector window after expiry — modeling the
// statistical confirmation delay of the paper's recovery path.
func eventBoundaries(cfg Config, events []*event) []boundary {
	var bs []boundary
	for _, e := range events {
		bs = append(bs, boundary{cycle: e.start, kind: boundModel})
		if e.end < cfg.Horizon {
			bs = append(bs, boundary{cycle: e.end, kind: boundModel})
			if e.remove {
				bs = append(bs, boundary{cycle: e.end + int64(cfg.Window), kind: boundRecover})
			}
		}
	}
	sort.SliceStable(bs, func(i, j int) bool { return bs[i].cycle < bs[j].cycle })
	return bs
}

// activeRates returns the per-site rate overrides of the events active at
// the cycle, a sorted vector in f's buffers; overlapping events take the
// maximum rate per site.
func activeRates(events []*event, cycle int64, f *siteFold) []noise.SiteRate {
	var rates []noise.SiteRate
	for _, e := range events {
		if cycle < e.start || cycle >= e.end {
			continue
		}
		rates = f.overlay(rates, e.siteRates())
	}
	return rates
}

// siteFold max-wins-merges sorted site-rate vectors (noise.OverlayRates)
// into two alternating buffers, so a chain of merges, each reading the
// previous result, allocates nothing at steady state.
type siteFold struct {
	buf [2][]noise.SiteRate
	k   int
}

// overlay merges over onto base into the buffer base does not occupy.
func (f *siteFold) overlay(base, over []noise.SiteRate) []noise.SiteRate {
	out := noise.OverlayRates(f.buf[f.k][:0], base, over)
	f.buf[f.k] = out
	f.k ^= 1
	return out
}

// stableID maps an observable to a code-change-stable detector identity:
// the representative hardware coordinate of the check, packed into an
// int32. DEM observable indices are not stable across deformations, so the
// window detector keys on hardware locations instead.
func stableID(info sim.ObsInfo) int32 {
	q := info.Support[0]
	if len(info.Ancillas) > 0 {
		q = info.Ancillas[0]
	}
	return int32(q.Row)<<16 | int32(q.Col)&0xFFFF
}

// roundStream buckets a shot's flagged detectors into per-round stable-id
// lists (index r holds the ids firing in round r of the chunk). Rows live
// in the caller-owned scratch and are valid only until the next call —
// safe because detect.Window.Feed copies the ids it retains — keeping the
// per-chunk streaming allocation-free at steady state.
func roundStream(dem *sim.DEM, flagged []int32, chunk int64, scratch *[][]int32) [][]int32 {
	byRound := *scratch
	if int64(cap(byRound)) < chunk+1 {
		grown := make([][]int32, chunk+1)
		copy(grown, byRound)
		byRound = grown
		*scratch = grown
	}
	byRound = byRound[:chunk+1]
	for i := range byRound {
		byRound[i] = byRound[i][:0]
	}
	for _, det := range flagged {
		r := int64(dem.DetRound[det])
		if r < 0 || r > chunk {
			continue
		}
		byRound[r] = append(byRound[r], stableID(dem.Observables[dem.DetObs[det]]))
	}
	return byRound
}

// attribution is the bookkeeping of one acted-on detector flag: the sites
// actually reported to the deformation unit (recovered when the flag's
// events subside) and the raw check support at attribution time (kept for
// multiplicity voting — the observable may not exist in later DEMs).
type attribution struct {
	est     []lattice.Coord
	support []lattice.Coord
}

func (a *attribution) claim(q lattice.Coord) bool {
	for _, s := range a.est {
		if s == q {
			return false
		}
	}
	a.est = append(a.est, q)
	return true
}

// newFlags returns the currently flagged stable ids not yet attributed.
// The window's flags pass through buf, the caller's per-patch scratch.
func newFlags(w *detect.Window, attributed map[int32]*attribution, buf *[]int32) []int32 {
	*buf = w.AppendFlagged((*buf)[:0])
	var fresh []int32
	for _, id := range *buf {
		if _, ok := attributed[id]; !ok {
			fresh = append(fresh, id)
		}
	}
	return fresh
}

// attribute records the newly flagged ids, estimates their hardware region
// from the current DEM, and credits detection latency to the matching
// events. The estimate is the detector's view, not the truth: a flagged
// check's own ancilla is trusted outright, but a data site is included
// only when at least two flagged checks cover it (multiplicity voting
// across the new and previously attributed flags). Taking every flagged
// check's full support instead over-removes ~4 healthy data qubits per
// adjacent check and shreds the patch under repeated strikes.
func attribute(dem *sim.DEM, fresh []int32, attributed map[int32]*attribution, events []*event, cycle int64, res *Result) []lattice.Coord {
	counts := map[lattice.Coord]int{}
	for _, att := range attributed {
		for _, q := range att.support {
			counts[q]++
		}
	}
	type candidate struct {
		id                int32
		support, ancillas []lattice.Coord
	}
	var cands []candidate
	for _, id := range fresh {
		var sup, anc []lattice.Coord
		for _, info := range dem.Observables {
			if stableID(info) != id {
				continue
			}
			sup = append(sup, info.Support...)
			anc = append(anc, info.Ancillas...)
		}
		for _, q := range sup {
			counts[q]++
		}
		cands = append(cands, candidate{id: id, support: sup, ancillas: anc})
	}

	estSet := map[lattice.Coord]bool{}
	for _, c := range cands {
		att := &attribution{support: c.support}
		for _, q := range c.ancillas {
			if att.claim(q) {
				estSet[q] = true
			}
		}
		for _, q := range c.support {
			if counts[q] >= 2 && att.claim(q) {
				estSet[q] = true
			}
		}
		lattice.SortCoords(att.est)
		attributed[c.id] = att
	}
	// Fresh support may have pushed an earlier attribution's data sites to
	// multiplicity 2: claim them now (sorted id order for determinism).
	for _, id := range subsetIDs(attributed, fresh) {
		att := attributed[id]
		for _, q := range att.support {
			if counts[q] >= 2 && att.claim(q) {
				estSet[q] = true
			}
		}
		lattice.SortCoords(att.est)
	}

	// Latency: first estimate overlapping a yet-undetected removable event
	// while it is still active.
	for _, e := range events {
		if !e.remove || e.detectedAt >= 0 || cycle < e.start || cycle >= e.end {
			continue
		}
		for _, q := range e.sites {
			if estSet[q] {
				e.detectedAt = cycle
				res.Detected++
				res.LatencyCycles += cycle - e.start
				break
			}
		}
	}
	estimate := make([]lattice.Coord, 0, len(estSet))
	for q := range estSet {
		estimate = append(estimate, q)
	}
	lattice.SortCoords(estimate)
	return estimate
}

// subsetIDs lists, sorted, the attributed ids not among the fresh ones.
func subsetIDs(attributed map[int32]*attribution, fresh []int32) []int32 {
	isFresh := map[int32]bool{}
	for _, id := range fresh {
		isFresh[id] = true
	}
	var ids []int32
	for id := range attributed {
		if !isFresh[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// activeRemoveSites returns the union of removable-event regions active at
// the cycle.
func activeRemoveSites(events []*event, cycle int64) map[lattice.Coord]bool {
	active := map[lattice.Coord]bool{}
	for _, e := range events {
		if !e.remove || cycle < e.start || cycle >= e.end {
			continue
		}
		for _, q := range e.sites {
			active[q] = true
		}
	}
	return active
}

// subsidedSites drops the attributions whose estimated region no longer
// intersects any active removable event and returns their sites (minus
// sites still claimed by an active event), sorted. Nil when nothing
// subsided. Every arm expires its subsided attributions through it; the
// structural arms also undo their action on the returned sites.
func subsidedSites(events []*event, attributed map[int32]*attribution, cycle int64) []lattice.Coord {
	active := activeRemoveSites(events, cycle)
	drop := subsidedIDs(attributed, active)
	if len(drop) == 0 {
		return nil
	}
	siteSet := map[lattice.Coord]bool{}
	for _, id := range drop {
		for _, q := range attributed[id].est {
			if !active[q] {
				siteSet[q] = true
			}
		}
		delete(attributed, id)
	}
	sites := make([]lattice.Coord, 0, len(siteSet))
	for q := range siteSet {
		sites = append(sites, q)
	}
	lattice.SortCoords(sites)
	return sites
}

// subsidedIDs lists, in sorted order, the attributed ids whose flagged
// check no longer overlaps any active removable event (neither the sites
// reported to the unit nor the check's own support).
func subsidedIDs(attributed map[int32]*attribution, active map[lattice.Coord]bool) []int32 {
	var drop []int32
	for id, att := range attributed {
		hot := false
		for _, q := range att.est {
			if active[q] {
				hot = true
				break
			}
		}
		for _, q := range att.support {
			if hot {
				break
			}
			if active[q] {
				hot = true
			}
		}
		if !hot {
			drop = append(drop, id)
		}
	}
	sort.Slice(drop, func(i, j int) bool { return drop[i] < drop[j] })
	return drop
}
