package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"surfdeformer/internal/defect"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/report"
	"surfdeformer/internal/traj"
)

// The trajectory scan is the first workload where deformation, detection,
// and the Monte-Carlo machinery run together at scale: every (mode,
// trajectory) pair is an independent closed-loop simulation fanned out over
// the point-level worker pool, committed to the persistent store as a whole
// row, and aggregated into per-arm comparison rows. Per-trajectory seeds
// derive from (Options.Seed, kindTraj, trajectory index) — deliberately
// without the mode, so every arm faces the identical defect timelines (a
// paired comparison). The scan is bit-identical for any PointWorkers value
// and byte-identical on resume after interruption (the trajectory index — not the shot budget —
// is the accumulating dimension: raising Options.Trials computes only the
// new indices).

// trajEngineRev is the current engine-semantics revision carried in every
// trajectory's store identity (rev 1: the decoder-prior reweight tier —
// surf-deformer results changed for unchanged configs; rev 2: Result
// gained OverlayDEMBuilds, so replayed payload bytes from older stores
// would not match recomputed ones; rev 3: the layout axis — Result gained
// the per-patch and router fields, so rev-2 payload bytes would not match
// recomputed ones even for single-patch configs; rev 4: the three-tier
// mitigation ladder and fabrication-device axis — Result gained
// DeviceDefects/Bandages and the full ladder gained the super tier, so
// surf-deformer semantics changed for unchanged configs).
const trajEngineRev = 4

// DefaultTrajModes lists the arms every scan compares, in mitigation-ladder
// order: the full ladder, removal only, bandaging only, reweighting only,
// nothing.
func DefaultTrajModes() []traj.Mode {
	return []traj.Mode{traj.ModeSurfDeformer, traj.ModeASC, traj.ModeSuperOnly, traj.ModeReweightOnly, traj.ModeUntreated}
}

// DefaultTrajConfig returns the scan scenario at Options scale.
func DefaultTrajConfig(opt Options) traj.Config {
	if opt.Quick {
		return traj.QuickConfig()
	}
	return traj.DefaultConfig(9)
}

// trajTaskConfig is the store identity of one trajectory: the full scenario
// generator (everything that fixes the event timeline and shot streams)
// plus the arm and the trajectory index. The trajectory count is
// deliberately absent — it is the accumulating dimension. Rev is the
// engine-semantics revision: it must be bumped whenever traj.Run changes
// what a Result means for an unchanged config (as the reweight tier did
// for every arm), so -resume against a store written by an older engine
// recomputes instead of silently mixing semantics.
type trajTaskConfig struct {
	Rev          int     `json:"rev,omitempty"`
	D            int     `json:"d"`
	DeltaD       int     `json:"delta_d"`
	Horizon      int64   `json:"horizon"`
	ChunkRounds  int     `json:"chunk_rounds"`
	Window       int     `json:"window"`
	Threshold    float64 `json:"threshold"`
	PhysicalRate float64 `json:"p"`
	Basis        int     `json:"basis"`

	CosmicRate     float64 `json:"cosmic_rate,omitempty"`
	CosmicDuration int     `json:"cosmic_duration,omitempty"`
	CosmicRadius   int     `json:"cosmic_radius,omitempty"`
	CosmicError    float64 `json:"cosmic_error,omitempty"`
	LeakRate       float64 `json:"leak_rate,omitempty"`
	LeakDuration   int     `json:"leak_duration,omitempty"`
	LeakNeighbour  float64 `json:"leak_neighbour,omitempty"`
	DriftRate      float64 `json:"drift_rate,omitempty"`
	DriftMult      float64 `json:"drift_mult,omitempty"`
	DriftDuration  int     `json:"drift_duration,omitempty"`

	ReweightFactor float64 `json:"reweight_factor,omitempty"`

	// Fabrication-device axis (rev 4). All omitted for pristine-device,
	// default-threshold scans, so every single-device row keeps its
	// identity across the axis addition.
	DeviceQubitRate   float64 `json:"device_qubit_rate,omitempty"`
	DeviceCouplerRate float64 `json:"device_coupler_rate,omitempty"`
	DeviceErrorRate   float64 `json:"device_error_rate,omitempty"`
	SuperThreshold    float64 `json:"super_threshold,omitempty"`
	Halflife          float64 `json:"halflife,omitempty"`

	// Layout axis (rev 3). All omitted for single-patch scans, so every
	// pre-layout row keeps its identity; a 1-patch layout scan hashes
	// differently from a single-patch scan because Patches is non-zero
	// (their Results differ in the per-patch slice).
	Patches int    `json:"patches,omitempty"`
	Program string `json:"program,omitempty"`
	Ops     int    `json:"ops,omitempty"`

	Mode string `json:"mode"`
	Traj int    `json:"traj"`
	Seed int64  `json:"seed"`
}

func taskConfig(cfg traj.Config, mode traj.Mode, j int, seed int64) trajTaskConfig {
	// The store identity carries the *resolved* reweight factor, and only
	// for arms whose ladder actually consults it: an explicit
	// `-reweight-factor 3` and the 0-means-default spelling run identical
	// trajectories and must hash identically; if the default itself ever
	// changes, default-spelled configs correctly stop matching their old
	// rows; and tuning the gate must not invalidate the untreated/asc-s
	// rows, whose Results are factor-independent.
	mit := mode.Mitigation()
	rf := 0.0
	if mit.ReweightTier {
		rf = cfg.ReweightFactor
		if rf == 0 {
			rf = traj.DefaultReweightFactor
		}
	}
	// Same resolution rule for the super boundary: carried only for arms
	// whose ladder has the super tier (the only ones whose Results can
	// depend on it), resolved so explicit-default and 0-means-default
	// spellings hash identically.
	st := 0.0
	if mit.SuperTier {
		st = cfg.SuperThreshold
		if st == 0 {
			st = defect.SuperThreshold
		}
	}
	tc := trajTaskConfig{
		Rev: trajEngineRev,
		D:   cfg.D, DeltaD: cfg.DeltaD, Horizon: cfg.Horizon,
		ChunkRounds: cfg.ChunkRounds, Window: cfg.Window, Threshold: cfg.Threshold,
		PhysicalRate: cfg.PhysicalRate, Basis: int(cfg.Basis),
		ReweightFactor: rf,
		SuperThreshold: st, Halflife: cfg.Halflife,
		Mode: mode.String(), Traj: j, Seed: seed,
	}
	if m := cfg.Device; m != nil {
		tc.DeviceQubitRate, tc.DeviceCouplerRate = m.QubitDefectRate, m.CouplerDefectRate
		tc.DeviceErrorRate = m.ErrorRate
		if tc.DeviceErrorRate <= 0 {
			tc.DeviceErrorRate = 0.5 // Sample's inoperable-hardware default
		}
	}
	if m := cfg.Cosmic; m != nil {
		tc.CosmicRate, tc.CosmicDuration = m.RatePerQubit, m.DurationCycles
		tc.CosmicRadius, tc.CosmicError = m.Radius, m.ErrorRate
	}
	if m := cfg.Leakage; m != nil {
		tc.LeakRate, tc.LeakDuration, tc.LeakNeighbour = m.RatePerQubit, m.MeanDurationCycles, m.NeighbourRate
	}
	if m := cfg.Drift; m != nil {
		tc.DriftRate, tc.DriftMult, tc.DriftDuration = m.RatePerQubit, m.Multiplier, m.MeanDurationCycles
	}
	if l := cfg.Layout; l != nil {
		tc.Patches, tc.Program, tc.Ops = l.Patches, l.Program, l.Ops
	}
	return tc
}

// TrajRow aggregates one arm of a trajectory scan.
type TrajRow struct {
	Mode         string
	Trajectories int
	// Survival is the fraction of trajectories without a logical failure by
	// each quarter of the horizon (T/4, T/2, 3T/4, T).
	Survival [4]float64
	// DetectedFrac is the detected fraction of removable defect events;
	// MeanLatency the mean onset→flag latency in cycles over detected ones
	// (-1 when nothing was detected).
	DetectedFrac float64
	MeanLatency  float64
	// MeanDeformations and MeanRecoveries count closed-loop actions per
	// trajectory; Severed counts trajectories whose patch disconnected.
	MeanDeformations float64
	MeanRecoveries   float64
	Severed          int
	// MeanBandages counts super-stabilizer bandage sites per trajectory
	// (boot adaptation plus dynamic merges); MeanDeviceDefects the sampled
	// fabrication defects per trajectory (identical across paired arms).
	// Both zero on pristine-device scans with the super tier idle.
	MeanBandages      float64
	MeanDeviceDefects float64
	// BlockedFrac is the fraction of patch-cycles with blocked channels;
	// MeanDistance the time-weighted mean of min(dX, dZ);
	// FailuresPer1k the failure rate per 1000 scored cycles.
	BlockedFrac   float64
	MeanDistance  float64
	FailuresPer1k float64
	// MeanReweights counts decoder-prior updates per trajectory;
	// ReweightedFrac is the fraction of elapsed cycles decoded under
	// estimated priors and MismatchFrac the fraction decoded with nominal
	// priors while elevated true rates were live (the regime reweighting
	// shrinks). MeanRateErr is the mean absolute estimated-vs-true per-site
	// rate error over the reweighted cycles (-1 when the arm never
	// reweighted).
	MeanReweights  float64
	ReweightedFrac float64
	MismatchFrac   float64
	MeanRateErr    float64
	// MeanOverlayBuilds counts overlay decode-DEM constructions per
	// trajectory — the reweight tier's dominant wall-clock cost (DESIGN.md
	// §10).
	MeanOverlayBuilds float64
	// Router aggregates, populated only on layout scans (a surgery
	// schedule present): ProgramDoneFrac is the fraction of trajectories
	// that completed their schedule; MeanOpsCompleted the mean executed
	// operations (of MeanOpsTotal scheduled); MeanStallCycles the mean
	// cycles spent with operations pending but none routable;
	// MeanReplans the mean operations that executed after at least one
	// failed attempt; MeanMergeBlocked the mean operations vetoed by the
	// merged-code distance check; ChannelBlockedFrac the fraction of
	// elapsed cycles with at least one routing channel blocked.
	MeanOpsTotal       float64
	MeanOpsCompleted   float64
	ProgramDoneFrac    float64
	MeanStallCycles    float64
	MeanReplans        float64
	MeanMergeBlocked   float64
	ChannelBlockedFrac float64
}

// TrajectoryScan runs Options.Trials closed-loop trajectories per mode and
// aggregates them into one comparison row per arm. See the package comment
// of internal/traj for the simulation model and the block comment above for
// the determinism and resume contract. Unlike the other grids, the scan
// returns no rows on any error, isolated point failures included.
func TrajectoryScan(opt Options, cfg traj.Config, modes []traj.Mode) ([]TrajRow, error) {
	if err := opt.checkTrials("a trajectory scan"); err != nil {
		return nil, err
	}
	if len(modes) == 0 {
		modes = DefaultTrajModes()
	}

	// Per-arm live survival for the progress note: read by the reporter's
	// ticker while the pool runs, so atomics, not plain ints.
	type armLive struct{ done, survived atomic.Int64 }
	live := make([]armLive, len(modes))
	if opt.Progress != nil {
		opt.Progress.Note = func() string {
			var sb strings.Builder
			for mi := range modes {
				d := live[mi].done.Load()
				if d == 0 {
					continue
				}
				if sb.Len() > 0 {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "%s %d/%d", modes[mi], live[mi].survived.Load(), d)
			}
			if sb.Len() == 0 {
				return ""
			}
			return "survived: " + sb.String()
		}
	}

	runPoint := func(mi, j int) (traj.Result, error) {
		mode := modes[mi]
		// The seed is shared across modes on purpose: trajectory j of every
		// arm draws the identical defect timeline, so arm differences are
		// policy, not timeline sampling noise (a paired comparison).
		seed := opt.pointSeed(kindTraj, int64(j))
		// The tracer rides on the config (taskConfig copies fields
		// explicitly, so neither it nor TraceTraj can leak into the store
		// identity). Store-served points emit nothing: their trajectories
		// did not run.
		pcfg := cfg
		pcfg.TraceTraj = j
		res, err := cachedRow(opt, "traj", taskConfig(cfg, mode, j, opt.Seed), func() (traj.Result, error) {
			r, err := traj.Run(pcfg, mode, seed)
			if err != nil {
				return traj.Result{}, err
			}
			return *r, nil
		})
		if err != nil {
			return traj.Result{}, err
		}
		live[mi].done.Add(1)
		if res.FirstFailCycle < 0 {
			live[mi].survived.Add(1)
		}
		return res, nil
	}

	// results holds each arm's committed in-order prefix: the full Trials,
	// or a shorter prefix for an arm adaptive stopping retired early.
	results := make([][]traj.Result, len(modes))
	if err := trajectoryScanAdaptive(opt, modes, results, runPoint); err != nil {
		return nil, err
	}

	rows := make([]TrajRow, len(modes))
	for mi, mode := range modes {
		armRes := results[mi]
		row := TrajRow{Mode: mode.String(), Trajectories: len(armRes)}
		var latency, detected, removable int64
		var deforms, recovers, failures, reweights, overlayBuilds int
		var bandages, deviceDefects int
		var blocked, distance, elapsed, scored int64
		var reweighted, mismatch int64
		var rateErr float64
		var opsTotal, opsDone, progDone, replans, mergeBlocked int
		var stall, chanBlocked int64
		for _, r := range armRes {
			for q := 0; q < 4; q++ {
				cp := cfg.Horizon * int64(q+1) / 4
				// A severed trajectory always carries a FirstFailCycle, so
				// this covers both failure kinds.
				if r.FirstFailCycle < 0 || r.FirstFailCycle > cp {
					row.Survival[q]++
				}
			}
			removable += int64(r.RemoveEvents)
			detected += int64(r.Detected)
			latency += r.LatencyCycles
			deforms += r.Deformations
			recovers += r.Recoveries
			bandages += r.Bandages
			deviceDefects += r.DeviceDefects
			failures += r.Failures
			blocked += r.BlockedCycles
			distance += r.DistanceCycles
			elapsed += r.ElapsedCycles
			scored += r.ScoredCycles
			reweights += r.Reweights
			reweighted += r.ReweightedCycles
			mismatch += r.MismatchCycles
			rateErr += r.RateErrCycles
			overlayBuilds += r.OverlayDEMBuilds
			if r.Severed {
				row.Severed++
			}
			opsTotal += r.OpsTotal
			opsDone += r.OpsCompleted
			if r.ProgramDone {
				progDone++
			}
			stall += r.StallCycles
			replans += r.Replans
			mergeBlocked += r.MergeBlockedOps
			chanBlocked += r.ChannelBlockedCycles
		}
		trials := float64(len(armRes))
		for q := range row.Survival {
			row.Survival[q] /= trials
		}
		if removable > 0 {
			row.DetectedFrac = float64(detected) / float64(removable)
		}
		row.MeanLatency = -1
		if detected > 0 {
			row.MeanLatency = float64(latency) / float64(detected)
		}
		row.MeanDeformations = float64(deforms) / trials
		row.MeanRecoveries = float64(recovers) / trials
		row.MeanBandages = float64(bandages) / trials
		row.MeanDeviceDefects = float64(deviceDefects) / trials
		if elapsed > 0 {
			row.BlockedFrac = float64(blocked) / float64(elapsed)
			row.MeanDistance = float64(distance) / float64(elapsed)
		}
		if scored > 0 {
			row.FailuresPer1k = 1000 * float64(failures) / float64(scored)
		}
		row.MeanReweights = float64(reweights) / trials
		if elapsed > 0 {
			row.ReweightedFrac = float64(reweighted) / float64(elapsed)
			row.MismatchFrac = float64(mismatch) / float64(elapsed)
		}
		row.MeanRateErr = -1
		if reweighted > 0 {
			row.MeanRateErr = rateErr / float64(reweighted)
		}
		row.MeanOverlayBuilds = float64(overlayBuilds) / trials
		row.MeanOpsTotal = float64(opsTotal) / trials
		row.MeanOpsCompleted = float64(opsDone) / trials
		row.ProgramDoneFrac = float64(progDone) / trials
		row.MeanStallCycles = float64(stall) / trials
		row.MeanReplans = float64(replans) / trials
		row.MeanMergeBlocked = float64(mergeBlocked) / trials
		if elapsed > 0 {
			row.ChannelBlockedFrac = float64(chanBlocked) / float64(elapsed)
		}
		rows[mi] = row
	}
	return rows, nil
}

// trajectoryScanAdaptive is the block loop every trajectory scan runs: it
// runs the arms in barrier-synchronized blocks and, under
// Options.AdaptiveStop, retires an arm once its failure confidence
// interval separates from every other arm's. The first barrier sits at
// MinTrials (so no arm can stop on fewer trajectories than the floor),
// later barriers every max(1, MinTrials/2) trajectories. Without adaptive
// stopping, or with a single arm (where separation is undefined), the
// first block is the whole budget: arm-major (arm, index) tasks in one
// grid and no barrier. Each block's tasks run through runGrid like any
// grid, but a stop decision reads only the committed prefixes at a barrier
// — results every worker schedule has fully materialized — so the
// stopping pattern, and with it every row, is bit-identical for any
// PointWorkers value. A stopped arm's interval stays in play at its frozen
// count: later arms still have to separate from it. Any block error,
// isolated failures included, ends the scan: per-arm aggregates over a
// trajectory set with holes would break the paired comparison.
func trajectoryScanAdaptive(opt Options, modes []traj.Mode, results [][]traj.Result, runPoint func(mi, j int) (traj.Result, error)) error {
	minT := opt.MinTrials
	if minT <= 0 {
		minT = DefaultMinTrials
	}
	if !opt.AdaptiveStop || len(modes) < 2 || minT > opt.Trials {
		minT = opt.Trials
	}
	step := minT / 2
	if step < 1 {
		step = 1
	}
	for mi := range results {
		results[mi] = make([]traj.Result, 0, opt.Trials)
	}
	stopped := make([]bool, len(modes))
	type task struct{ mi, j int }
	for start := 0; start < opt.Trials; {
		end := start + step
		if start == 0 {
			end = minT
		}
		if end > opt.Trials {
			end = opt.Trials
		}
		var tasks []task
		for mi := range modes {
			if stopped[mi] {
				continue
			}
			for j := start; j < end; j++ {
				tasks = append(tasks, task{mi, j})
			}
		}
		if len(tasks) == 0 {
			break
		}
		block, err := runGrid(opt, tasks, func(t task) (traj.Result, error) {
			return runPoint(t.mi, t.j)
		})
		if err != nil {
			return err
		}
		// Commit in task order: per arm the js are contiguous and ascending,
		// so each prefix stays in trajectory-index order.
		for i, t := range tasks {
			results[t.mi] = append(results[t.mi], block[i])
		}
		if end < opt.Trials {
			lo := make([]float64, len(modes))
			hi := make([]float64, len(modes))
			for mi := range modes {
				lo[mi], hi[mi] = armFailureCI(results[mi])
			}
			for mi := range modes {
				if stopped[mi] {
					continue
				}
				separated := true
				for oi := range modes {
					if oi == mi {
						continue
					}
					if hi[mi] >= lo[oi] && hi[oi] >= lo[mi] {
						separated = false
						break
					}
				}
				if separated {
					stopped[mi] = true
				}
			}
		}
		start = end
	}
	return nil
}

// armFailureCI is the Wilson 95% confidence interval of an arm's failure
// fraction over its committed prefix (a failed trajectory is one with a
// FirstFailCycle).
func armFailureCI(rs []traj.Result) (lo, hi float64) {
	fails := 0
	for _, r := range rs {
		if r.FirstFailCycle >= 0 {
			fails++
		}
	}
	return mc.WilsonInterval(fails, len(rs), mc.DefaultZ)
}

// RenderTraj prints the trajectory-scan comparison table: the closed-loop
// headline columns, then the decoder-prior columns of the reweight tier.
func RenderTraj(w io.Writer, horizon int64, rows []TrajRow) {
	fmt.Fprintf(w, "closed-loop trajectories over %d cycles (survival at quarter horizons)\n", horizon)
	fmt.Fprintf(w, "%-14s %-6s %-26s %-9s %-9s %-8s %-8s %-8s %-7s %-9s %-8s %-9s %-8s %-7s %-9s %-9s %-6s\n",
		"arm", "trajs", "survival T/4 T/2 3T/4 T", "detect%", "latency", "deforms", "bandages", "recovers", "severed", "blocked%", "mean-d", "fail/1k",
		"rewts", "rw%", "mismatch%", "rate-err", "odem")
	for _, r := range rows {
		lat := "-"
		if r.MeanLatency >= 0 {
			lat = fmt.Sprintf("%.1f", r.MeanLatency)
		}
		rerr := "-"
		if r.MeanRateErr >= 0 {
			rerr = fmt.Sprintf("%.4f", r.MeanRateErr)
		}
		fmt.Fprintf(w, "%-14s %-6d %.2f %.2f %.2f %.2f        %-9.0f %-9s %-8.2f %-8.2f %-8.2f %-7d %-9.1f %-8.2f %-9.3f %-8.1f %-7.1f %-9.1f %-9s %-6.1f\n",
			r.Mode, r.Trajectories,
			r.Survival[0], r.Survival[1], r.Survival[2], r.Survival[3],
			100*r.DetectedFrac, lat, r.MeanDeformations, r.MeanBandages, r.MeanRecoveries,
			r.Severed, 100*r.BlockedFrac, r.MeanDistance, r.FailuresPer1k,
			r.MeanReweights, 100*r.ReweightedFrac, 100*r.MismatchFrac, rerr, r.MeanOverlayBuilds)
	}
	router := false
	for _, r := range rows {
		if r.MeanOpsTotal > 0 {
			router = true
			break
		}
	}
	if !router {
		return
	}
	fmt.Fprintf(w, "router (lattice-surgery schedule per trajectory)\n")
	fmt.Fprintf(w, "%-14s %-7s %-11s %-8s %-8s %-8s %-9s\n",
		"arm", "done%", "ops", "stall", "replans", "mrg-blk", "chan-blk%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-7.0f %5.1f/%-5.1f %-8.1f %-8.2f %-8.2f %-9.1f\n",
			r.Mode, 100*r.ProgramDoneFrac, r.MeanOpsCompleted, r.MeanOpsTotal,
			r.MeanStallCycles, r.MeanReplans, r.MeanMergeBlocked, 100*r.ChannelBlockedFrac)
	}
}

// TrajTable converts trajectory-scan rows for CSV/JSON export.
func TrajTable(rows []TrajRow) *report.Table {
	t := report.New("traj", "mode", "trajectories",
		"survival_q1", "survival_q2", "survival_q3", "survival_q4",
		"detected_frac", "mean_latency", "mean_deformations", "mean_recoveries",
		"mean_bandages", "mean_device_defects",
		"severed", "blocked_frac", "mean_distance", "failures_per_1k",
		"mean_reweights", "reweighted_frac", "mismatch_frac", "mean_rate_err",
		"mean_overlay_dem_builds",
		"mean_ops_total", "mean_ops_completed", "program_done_frac",
		"mean_stall_cycles", "mean_replans", "mean_merge_blocked",
		"channel_blocked_frac")
	for _, r := range rows {
		t.Add(r.Mode, r.Trajectories,
			r.Survival[0], r.Survival[1], r.Survival[2], r.Survival[3],
			r.DetectedFrac, r.MeanLatency, r.MeanDeformations, r.MeanRecoveries,
			r.MeanBandages, r.MeanDeviceDefects,
			r.Severed, r.BlockedFrac, r.MeanDistance, r.FailuresPer1k,
			r.MeanReweights, r.ReweightedFrac, r.MismatchFrac, r.MeanRateErr,
			r.MeanOverlayBuilds,
			r.MeanOpsTotal, r.MeanOpsCompleted, r.ProgramDoneFrac,
			r.MeanStallCycles, r.MeanReplans, r.MeanMergeBlocked,
			r.ChannelBlockedFrac)
	}
	return t
}
