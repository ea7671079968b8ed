package experiments

import (
	"fmt"
	"io"
	"math"

	"surfdeformer/internal/defect"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/detect"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/sim"
)

// ---------------------------------------------------------------------------
// Fig. 14a: robustness to correlated two-qubit errors
// ---------------------------------------------------------------------------

// Fig14aRow is one point of the correlated-error robustness study.
type Fig14aRow struct {
	PCorrelated float64
	NumDefects  int
	UntreatedLE float64
	RemovedLE   float64
}

// fig14aConfig is the store identity of one (p_correlated, k) point.
type fig14aConfig struct {
	PCorrelated float64 `json:"p_correlated"`
	K           int     `json:"k"`
	D           int     `json:"d"`
	Shots       int     `json:"shots"`
	Rounds      int     `json:"rounds"`
	Seed        int64   `json:"seed"`
}

// Fig14a repeats the fig. 11a comparison under an additional correlated
// two-qubit error channel of increasing strength: the deformed code must
// retain its advantage over the untreated code. (p_correlated, k) points
// run on the point-level pool with content-derived fault patterns.
func Fig14a(opt Options) ([]Fig14aRow, error) {
	d := 9
	counts := []int{5, 15, 25}
	pcs := []float64{1e-3, 2e-3, 4e-3}
	if opt.Quick {
		d = 5
		counts = []int{2, 4}
		pcs = []float64{1e-3, 4e-3}
	}
	type point struct {
		pc float64
		k  int
	}
	var grid []point
	for _, pc := range pcs {
		for _, k := range counts {
			grid = append(grid, point{pc, k})
		}
	}
	return runGrid(opt, grid, func(pt point) (Fig14aRow, error) {
		cfg := fig14aConfig{PCorrelated: pt.pc, K: pt.k, D: d, Shots: opt.Shots, Rounds: opt.Rounds, Seed: opt.Seed}
		return cachedRow(opt, "fig14a", cfg, func() (Fig14aRow, error) {
			return fig14aPoint(opt, d, pt.pc, pt.k)
		})
	})
}

func fig14aPoint(opt Options, d int, pc float64, k int) (Fig14aRow, error) {
	pcPart := int64(math.Round(pc * 1e9)) // content-derived stream, not grid-positional
	rng := opt.pointRNG(kindFig14a, pcPart, int64(k))
	base := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, d)
	min, max := base.Bounds()
	defects := defect.StaticFaults(min, max, k, rng)
	nominal := noise.Uniform(noise.DefaultPhysical).WithCorrelated(pc)
	defModel := nominal.WithDefects(defects, noise.DefaultDefectRate)

	untreated, err := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, d).Build()
	if err != nil {
		return Fig14aRow{}, err
	}
	resU, err := sim.RunMemoryOpts(untreated, defModel, nominal,
		opt.memoryOpts(opt.pointSeed(kindFig14a, pcPart, int64(k), 0)))
	if err != nil {
		return Fig14aRow{}, err
	}

	spec := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, d)
	if err := deform.ApplyDefects(spec, defects, deform.PolicySurfDeformer); err != nil {
		return Fig14aRow{}, err
	}
	removedLE := 0.5
	if removedCode, err := spec.Build(); err == nil {
		resR, err := sim.RunMemoryOpts(removedCode, nominal, nil,
			opt.memoryOpts(opt.pointSeed(kindFig14a, pcPart, int64(k), 1)))
		if err != nil {
			return Fig14aRow{}, err
		}
		removedLE = resR.PerRound
	}
	return Fig14aRow{PCorrelated: pc, NumDefects: k,
		UntreatedLE: resU.PerRound, RemovedLE: removedLE}, nil
}

// RenderFig14a prints the series.
func RenderFig14a(w io.Writer, rows []Fig14aRow) {
	fmt.Fprintf(w, "%-10s %-10s %-22s %-22s\n", "p_corr", "#defects", "untreated λ/cycle", "surf-deformer λ/cycle")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10.0e %-10d %-22.3e %-22.3e\n", r.PCorrelated, r.NumDefects, r.UntreatedLE, r.RemovedLE)
	}
}

// ---------------------------------------------------------------------------
// Fig. 14b: robustness to imprecise defect detection
// ---------------------------------------------------------------------------

// Fig14bRow is one point of the imprecise-detection study.
type Fig14bRow struct {
	NumDefects  int
	UntreatedLE float64
	PreciseLE   float64
	ImpreciseLE float64
}

// fig14bConfig is the store identity of one defect-count point.
type fig14bConfig struct {
	K      int   `json:"k"`
	D      int   `json:"d"`
	Shots  int   `json:"shots"`
	Rounds int   `json:"rounds"`
	Seed   int64 `json:"seed"`
}

// Fig14b compares deformed codes built from precise defect reports against
// reports distorted by 1% false positives and false negatives: qubits the
// detector missed stay defective (and the decoder does not know), healthy
// qubits falsely flagged get removed needlessly. Defect counts run as
// pooled points.
func Fig14b(opt Options) ([]Fig14bRow, error) {
	d := 9
	counts := []int{5, 15, 25}
	if opt.Quick {
		d = 5
		counts = []int{2, 4}
	}
	const fp, fn = 0.01, 0.01
	nominal := noise.Uniform(noise.DefaultPhysical)
	return runGrid(opt, counts, func(k int) (Fig14bRow, error) {
		cfg := fig14bConfig{K: k, D: d, Shots: opt.Shots, Rounds: opt.Rounds, Seed: opt.Seed}
		return cachedRow(opt, "fig14b", cfg, func() (Fig14bRow, error) {
			rng := opt.pointRNG(kindFig14b, int64(k))
			base := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, d)
			min, max := base.Bounds()
			truth := defect.StaticFaults(min, max, k, rng)
			defModel := nominal.WithDefects(truth, noise.DefaultDefectRate)

			untreated, err := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, d).Build()
			if err != nil {
				return Fig14bRow{}, err
			}
			resU, err := sim.RunMemoryOpts(untreated, defModel, nominal,
				opt.memoryOpts(opt.pointSeed(kindFig14b, int64(k), 0)))
			if err != nil {
				return Fig14bRow{}, err
			}

			// Precise removal.
			preciseLE, err := removalRate(truth, truth, d, nominal, opt, opt.pointSeed(kindFig14b, int64(k), 1))
			if err != nil {
				return Fig14bRow{}, err
			}

			// Imprecise removal: distort the report.
			var healthy []lattice.Coord
			isTrue := map[lattice.Coord]bool{}
			for _, q := range truth {
				isTrue[q] = true
			}
			for r := min.Row; r <= max.Row; r++ {
				for c := min.Col; c <= max.Col; c++ {
					q := lattice.Coord{Row: r, Col: c}
					if (q.IsData() || q.IsCheck()) && !isTrue[q] {
						healthy = append(healthy, q)
					}
				}
			}
			report := detect.Oracle(truth, healthy, fp, fn, rng)
			impreciseLE, err := removalRate(report, truth, d, nominal, opt, opt.pointSeed(kindFig14b, int64(k), 2))
			return Fig14bRow{NumDefects: k, UntreatedLE: resU.PerRound,
				PreciseLE: preciseLE, ImpreciseLE: impreciseLE}, err
		})
	})
}

// removalRate deforms the patch per the reported defects and measures the
// per-cycle logical error rate under the TRUE defect model: reported qubits
// leave the code, missed qubits remain hot with the decoder unaware. A
// report the removal cannot absorb severs the patch (rate 0.5); a failed or
// canceled memory run is an error.
func removalRate(report, truth []lattice.Coord, d int, nominal *noise.Model, opt Options, seed int64) (float64, error) {
	spec := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, d)
	if err := deform.ApplyDefects(spec, report, deform.PolicySurfDeformer); err != nil {
		return 0.5, nil
	}
	c, err := spec.Build()
	if err != nil {
		return 0.5, nil
	}
	// Missed defects (in truth, still in the code) stay defective.
	var remaining []lattice.Coord
	for _, q := range truth {
		if c.HasData(q) || c.HasSyndrome(q) {
			remaining = append(remaining, q)
		}
	}
	sampleModel := nominal
	if len(remaining) > 0 {
		sampleModel = nominal.WithDefects(remaining, noise.DefaultDefectRate)
	}
	res, err := sim.RunMemoryOpts(c, sampleModel, nominal, opt.memoryOpts(seed))
	if err != nil {
		return 0, err
	}
	return res.PerRound, nil
}

// RenderFig14b prints the series.
func RenderFig14b(w io.Writer, rows []Fig14bRow) {
	fmt.Fprintf(w, "%-10s %-20s %-20s %-20s\n", "#defects", "untreated", "precise", "imprecise")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %-20.3e %-20.3e %-20.3e\n", r.NumDefects, r.UntreatedLE, r.PreciseLE, r.ImpreciseLE)
	}
}
