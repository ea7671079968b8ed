package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"surfdeformer/internal/decoder"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/detect"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/sim"
)

// PipelineResult summarizes the end-to-end runtime loop of fig. 5 with a
// real statistical defect detector: a cosmic-ray strike lands mid-run, the
// sliding-window detector localizes it from the syndrome stream, and the
// deformation unit mitigates the detected region.
type PipelineResult struct {
	// DetectionLatency is the mean number of rounds between defect onset
	// and the detector's first flag (-1 when never detected).
	DetectionLatency float64
	// Recall is the fraction of truly defective region qubits covered by
	// the detected region estimate.
	Recall float64
	// Precision is the fraction of the detected region that is truly
	// defective.
	Precision float64
	// DistanceAfter is the mean code distance after deforming per the
	// detected region (with enlargement budget).
	DistanceAfter float64
	// Trials and Detected count the Monte-Carlo outcomes.
	Trials   int
	Detected int
}

// DetectionPipeline runs the integrated loop: phased DEM (nominal rounds,
// then a defect region at 50%), per-round detection-event streaming into
// the window detector, region estimation from the flagged observables, and
// adaptive deformation of the estimated region.
func DetectionPipeline(opt Options) (*PipelineResult, error) {
	if err := opt.checkTrials("pipeline"); err != nil {
		return nil, err
	}
	d := 9
	onset := 6
	tail := 24
	window, threshold := 8, 0.3
	if opt.Quick {
		d, onset, tail, window = 5, 4, 12, 6
	}
	rng := opt.pointRNG(kindPipeline)
	dm := defect.Paper()
	nominal := noise.Uniform(noise.DefaultPhysical)

	res := &PipelineResult{Trials: opt.Trials}
	var latencySum, recallSum, precisionSum, distSum float64
	distCount := 0
	for trial := 0; trial < opt.Trials; trial++ {
		spec := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, d)
		c, err := spec.Build()
		if err != nil {
			return nil, err
		}
		min, max := spec.Bounds()
		// Strike an interior-ish centre so the region fits the patch.
		center := lattice.Coord{Row: 1 + 2*(1+rng.Intn(d-2)), Col: 1 + 2*(1+rng.Intn(d-2))}
		if !center.IsData() {
			center.Col++
		}
		region := dm.RegionOf(center, min, max)
		hot := nominal.WithDefects(region, noise.DefaultDefectRate)

		dem, err := sim.BuildPhasedDEM(c, []sim.Phase{
			{Rounds: onset, Model: nominal},
			{Rounds: tail, Model: hot},
		}, lattice.ZCheck)
		if err != nil {
			return nil, err
		}
		sampler := sim.NewSampler(dem)
		flagged, _ := sampler.Shot(rng)

		// Stream detection events round by round into the window detector.
		byRound := map[int][]int32{}
		for _, det := range flagged {
			r := int(dem.DetRound[det])
			byRound[r] = append(byRound[r], dem.DetObs[det])
		}
		w := detect.NewWindow(window, threshold)
		detectedRound := -1
		var flaggedObs []int32
		for r := 0; r <= onset+tail; r++ {
			w.Feed(r, byRound[r])
			if r >= window && detectedRound < 0 {
				if obs := w.Flagged(); len(obs) > 0 {
					detectedRound = r
					flaggedObs = obs
				}
			}
		}
		if detectedRound < 0 {
			continue
		}
		res.Detected++
		latencySum += float64(detectedRound - onset)

		// Region estimate: supports + ancillas of the flagged observables.
		est := map[lattice.Coord]bool{}
		for _, oi := range flaggedObs {
			info := dem.Observables[oi]
			for _, q := range info.Support {
				est[q] = true
			}
			for _, q := range info.Ancillas {
				est[q] = true
			}
		}
		inRegion := map[lattice.Coord]bool{}
		for _, q := range region {
			inRegion[q] = true
		}
		var hit, estSize int
		for q := range est {
			estSize++
			if inRegion[q] {
				hit++
			}
		}
		covered := 0
		for _, q := range region {
			if est[q] {
				covered++
			}
		}
		if len(region) > 0 {
			recallSum += float64(covered) / float64(len(region))
		}
		if estSize > 0 {
			precisionSum += float64(hit) / float64(estSize)
		}

		// Mitigate the estimated region.
		var report []lattice.Coord
		for q := range est {
			report = append(report, q)
		}
		lattice.SortCoords(report)
		mitigated := spec.Clone()
		if err := deform.ApplyDefects(mitigated, report, deform.PolicySurfDeformer); err != nil {
			continue
		}
		enl, err := deform.Enlarge(mitigated, d, d, func(q lattice.Coord) bool { return inRegion[q] },
			deform.PolicySurfDeformer, deform.UniformBudget(4))
		if err != nil {
			continue
		}
		distSum += float64(enl.Code.Distance())
		distCount++
	}
	if res.Detected > 0 {
		res.DetectionLatency = latencySum / float64(res.Detected)
		res.Recall = recallSum / float64(res.Detected)
		res.Precision = precisionSum / float64(res.Detected)
	} else {
		res.DetectionLatency = -1
	}
	if distCount > 0 {
		res.DistanceAfter = distSum / float64(distCount)
	}
	return res, nil
}

// RenderPipeline prints the integration-study summary.
func RenderPipeline(w io.Writer, r *PipelineResult) {
	fmt.Fprintf(w, "trials: %d, detected: %d (%.0f%%)\n", r.Trials, r.Detected,
		100*float64(r.Detected)/float64(max(1, r.Trials)))
	fmt.Fprintf(w, "detection latency: %.1f rounds after onset\n", r.DetectionLatency)
	fmt.Fprintf(w, "region recall: %.2f  precision: %.2f\n", r.Recall, r.Precision)
	fmt.Fprintf(w, "mean distance after mitigation: %.2f\n", r.DistanceAfter)
}

// ---------------------------------------------------------------------------
// Configuration sweeps on the Monte-Carlo engine
// ---------------------------------------------------------------------------

// SweepPoint is one (distance, defect count, policy) configuration of a
// defect-adaptive memory sweep — the workload shape of both Surf-Deformer's
// evaluation and the adaptive-surface-code studies it compares against.
type SweepPoint struct {
	D          int
	NumDefects int
	Policy     deform.Policy
}

// seedParts maps the point's content to a DeriveSeed path, so a point's
// fault pattern and shots do not depend on its grid position.
func (p SweepPoint) seedParts() []int64 {
	return []int64{int64(p.D), int64(p.NumDefects), int64(p.Policy)}
}

// sweepConfig is the store identity of one sweep point: everything that
// fixes its RNG stream family and physics. The shot budget is deliberately
// absent — it is the accumulating dimension (see DESIGN.md §7).
type sweepConfig struct {
	D         int     `json:"d"`
	K         int     `json:"k"`
	Policy    string  `json:"policy"`
	Rounds    int     `json:"rounds"`
	Decoder   string  `json:"decoder"`
	Seed      int64   `json:"seed"`
	TargetRSE float64 `json:"target_rse,omitempty"`
}

// SweepEngine tunes the Monte-Carlo engine for a memory grid (MemorySweep,
// Calibrate).
type SweepEngine struct {
	// Workers sizes the per-point worker pool (0 = all CPUs). Results are
	// bit-identical for any value.
	Workers int
	// TargetRSE, when positive, stops each point early at this relative
	// standard error, capped at MaxShots.
	TargetRSE float64
	// MaxShots caps the adaptive budget (0 = the Options shot budget).
	MaxShots int
}

// validate rejects a TargetRSE that is negative or NaN. It runs before any
// point does: the stored path runs its segments with TargetRSE zeroed, so
// the Monte-Carlo engine's own check never sees the bad value there.
func (e SweepEngine) validate() error {
	if !(e.TargetRSE >= 0) { // NaN fails every comparison
		return fmt.Errorf("experiments: target RSE %g must be zero or positive", e.TargetRSE)
	}
	return nil
}

// shots is the per-point shot budget: MaxShots when set, else opt.Shots.
func (e SweepEngine) shots(opt Options) int {
	if e.MaxShots > 0 {
		return e.MaxShots
	}
	return opt.Shots
}

// SweepRow is one measured sweep configuration.
type SweepRow struct {
	SweepPoint
	// Severed marks fault patterns the policy could not remove without
	// disconnecting the patch; such points report the random limit.
	Severed bool
	// DistanceAfter is the code distance remaining after defect removal.
	DistanceAfter int
	PerRound      float64
	Shots         int
	Failures      int
	CILow, CIHigh float64
	EarlyStopped  bool
}

// DefaultSweepGrid builds the sweep grid: every policy at every distance
// and defect count of the study scale.
func DefaultSweepGrid(opt Options) []SweepPoint {
	ds := []int{5, 7, 9}
	counts := []int{0, 1, 2, 4}
	if opt.Quick {
		ds = []int{5}
		counts = []int{0, 2}
	}
	policies := []deform.Policy{deform.PolicySurfDeformer, deform.PolicyASC}
	var grid []SweepPoint
	for _, d := range ds {
		for _, k := range counts {
			for _, p := range policies {
				grid = append(grid, SweepPoint{D: d, NumDefects: k, Policy: p})
			}
		}
	}
	return grid
}

// MemorySweep measures the post-removal logical error rate of every grid
// point on the Monte-Carlo engine, fanning points out over the point-level
// worker pool. Per-point fault patterns and run seeds derive from
// (Options.Seed, point content) alone, so a point's result is
// deterministic regardless of grid order, subsetting, worker count at
// either level, or early stopping; the shared DEM cache deduplicates the
// repeated configurations a grid produces (the zero-defect baselines of
// every policy, identical deformed codes, the nominal decode models).
//
// With Options.Store set, each point's Monte-Carlo aggregate is committed
// under the hash of sweepConfig; Options.Resume serves complete points
// from the store and tops up partial ones with only the missing shots
// (Wilson CIs recomputed from the merged counts). Severed points carry no
// Monte-Carlo work and are always recomputed (they are pure functions of
// the config, decided in microseconds). Isolated point failures return the
// finished rows with the error (runGrid).
func MemorySweep(opt Options, grid []SweepPoint, eng SweepEngine) ([]SweepRow, error) {
	if err := eng.validate(); err != nil {
		return nil, err
	}
	shots := eng.shots(opt)
	nominal := noise.Uniform(noise.DefaultPhysical)
	return runGrid(opt, grid, func(pt SweepPoint) (SweepRow, error) {
		row := SweepRow{SweepPoint: pt}
		faultSeed := opt.pointSeed(kindSweep, append(pt.seedParts(), 0)...)
		rng := rand.New(rand.NewSource(faultSeed))
		spec := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, pt.D)
		if pt.NumDefects > 0 {
			min, max := spec.Bounds()
			defects := defect.StaticFaults(min, max, pt.NumDefects, rng)
			if err := deform.ApplyDefects(spec, defects, pt.Policy); err != nil {
				row.Severed = true
				row.PerRound = 0.5
				return row, nil
			}
		}
		c, err := spec.Build()
		if err != nil {
			row.Severed = true
			row.PerRound = 0.5
			return row, nil
		}
		row.DistanceAfter = c.Distance()
		res, fromStore, err := sim.RunMemoryStored(c, nominal, nil, sim.RunOptions{
			Rounds:    opt.Rounds,
			Basis:     lattice.ZCheck,
			Factory:   decoder.UnionFindFactory(),
			Shots:     shots,
			Workers:   eng.Workers,
			TargetRSE: eng.TargetRSE,
			Seed:      opt.pointSeed(kindSweep, append(pt.seedParts(), 1)...),
			Ctx:       opt.Ctx,
		}, sim.StoreOptions{
			Store:  opt.Store,
			Resume: opt.Resume,
			Kind:   "sweep",
			Config: sweepConfig{
				D: pt.D, K: pt.NumDefects, Policy: pt.Policy.String(),
				Rounds: opt.Rounds, Decoder: "uf", Seed: opt.Seed, TargetRSE: eng.TargetRSE,
			},
		})
		if err != nil {
			return SweepRow{}, err
		}
		if fromStore {
			opt.Stats.AddSkipped()
		} else {
			opt.Stats.AddComputed()
		}
		row.PerRound = res.PerRound
		row.Shots = res.Shots
		row.Failures = res.Failures
		row.CILow, row.CIHigh = res.CILow, res.CIHigh
		row.EarlyStopped = res.EarlyStopped
		return row, nil
	})
}

// RenderSweep prints the sweep table.
func RenderSweep(w io.Writer, rows []SweepRow) {
	fmt.Fprintf(w, "%-4s %-10s %-16s %-8s %-14s %-24s %-10s\n",
		"d", "#defects", "policy", "d-after", "λ/cycle", "95% CI (per shot)", "shots")
	for _, r := range rows {
		if r.Severed {
			fmt.Fprintf(w, "%-4d %-10d %-16s %-8s %-14s %-24s %-10s\n",
				r.D, r.NumDefects, r.Policy, "-", "severed", "-", "-")
			continue
		}
		stopped := ""
		if r.EarlyStopped {
			stopped = "*"
		}
		fmt.Fprintf(w, "%-4d %-10d %-16s %-8d %-14.3e [%.3e, %.3e]  %d%s\n",
			r.D, r.NumDefects, r.Policy, r.DistanceAfter, r.PerRound, r.CILow, r.CIHigh, r.Shots, stopped)
	}
}
