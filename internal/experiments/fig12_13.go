package experiments

import (
	"fmt"
	"io"

	"surfdeformer/internal/defect"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/estimator"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/layout"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/program"
)

// ---------------------------------------------------------------------------
// Fig. 12: physical qubits to reach ≈1% retry risk
// ---------------------------------------------------------------------------

// Fig12Row is one benchmark × scheme bar of the resource comparison.
type Fig12Row struct {
	Program *program.Program
	Scheme  layout.Scheme
	D       int
	Qubits  int
	Risk    float64
	Reached bool
}

// fig12Config is the store identity of one (benchmark, scheme) point.
type fig12Config struct {
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
	Trials    int    `json:"trials"`
	Seed      int64  `json:"seed"`
	FitLosses bool   `json:"fit_losses,omitempty"`
}

// fig12Payload is the stored result of one point; the identity fields
// (benchmark, scheme) come from the grid point itself.
type fig12Payload struct {
	D       int     `json:"d"`
	Qubits  int     `json:"qubits"`
	Risk    float64 `json:"risk"`
	Reached bool    `json:"reached"`
}

// Fig12 searches, per scheme, the minimal code distance meeting a 1% retry
// risk and reports the physical qubits of the resulting layout. Lattice
// surgery (no mitigation) and Q3DE* (2d spacing) are included per the
// paper's revised comparison. (benchmark, scheme) points run on the
// point-level pool, each on its own derived defect-timeline stream.
func Fig12(opt Options) ([]Fig12Row, error) {
	if err := opt.checkTrials("fig12"); err != nil {
		return nil, err
	}
	dm, lm, fws := estimators(opt)
	benches := []*program.Program{
		program.Simon(900, 1500),
		program.RCA(729, 100),
		program.QFT(100, 20),
		program.Grover(16, 2),
	}
	if opt.Quick {
		benches = benches[:1]
	}
	schemes := []layout.Scheme{layout.LatticeSurgery, layout.Q3DEStar, layout.ASCS, layout.SurfDeformer}
	deltaDFor := func(d int) int { return layout.ChooseDeltaD(dm, d, layout.DefaultAlphaBlock) }
	maxD := 61
	type point struct {
		prog   *program.Program
		scheme layout.Scheme
	}
	var grid []point
	for _, prog := range benches {
		for _, scheme := range schemes {
			grid = append(grid, point{prog, scheme})
		}
	}
	return runGrid(opt, grid, func(pt point) (Fig12Row, error) {
		cfg := fig12Config{Benchmark: pt.prog.Name, Scheme: pt.scheme.String(),
			Trials: opt.Trials, Seed: opt.Seed, FitLosses: opt.FitLosses}
		pay, err := cachedRow(opt, "fig12", cfg, func() (fig12Payload, error) {
			rng := opt.pointRNG(kindFig12, mc.StringSeed(pt.prog.Name), int64(pt.scheme))
			est, ok := estimator.MinimalDistance(pt.prog, fws[pt.scheme], 0.01, deltaDFor, dm, lm, opt.Trials, maxD, rng)
			return fig12Payload{D: est.D, Qubits: est.PhysicalQubits, Risk: est.RetryRisk, Reached: ok}, nil
		})
		return Fig12Row{Program: pt.prog, Scheme: pt.scheme,
			D: pay.D, Qubits: pay.Qubits, Risk: pay.Risk, Reached: pay.Reached}, err
	})
}

// RenderFig12 prints the bars.
func RenderFig12(w io.Writer, rows []Fig12Row) {
	fmt.Fprintf(w, "%-16s %-16s %-4s %-14s %-10s %s\n", "benchmark", "scheme", "d", "#qubits", "risk", "met-1%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-16s %-4d %-14.3e %-10.4f %v\n",
			r.Program.Name, r.Scheme, r.D, float64(r.Qubits), r.Risk, r.Reached)
	}
}

// ---------------------------------------------------------------------------
// Fig. 13a: retry-risk vs qubit-count trade-off
// ---------------------------------------------------------------------------

// Fig13aRow is one point of the trade-off curve.
type Fig13aRow struct {
	Scheme layout.Scheme
	D      int
	Qubits int
	Risk   float64
}

// fig13aConfig is the store identity of one (d, scheme) point.
type fig13aConfig struct {
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
	D         int    `json:"d"`
	Trials    int    `json:"trials"`
	Seed      int64  `json:"seed"`
	FitLosses bool   `json:"fit_losses,omitempty"`
}

type fig13aPayload struct {
	Qubits int     `json:"qubits"`
	Risk   float64 `json:"risk"`
}

// Fig13a sweeps the code distance and reports the (physical qubits, retry
// risk) trade-off line of ASC-S versus Surf-Deformer, one pooled point per
// (d, scheme).
func Fig13a(opt Options) ([]Fig13aRow, error) {
	if err := opt.checkTrials("fig13a"); err != nil {
		return nil, err
	}
	dm, lm, fws := estimators(opt)
	prog := program.Simon(900, 1500)
	ds := []int{17, 19, 21, 23, 25}
	if opt.Quick {
		ds = []int{19, 23}
	}
	type point struct {
		d      int
		scheme layout.Scheme
	}
	var grid []point
	for _, d := range ds {
		for _, scheme := range []layout.Scheme{layout.ASCS, layout.SurfDeformer} {
			grid = append(grid, point{d, scheme})
		}
	}
	return runGrid(opt, grid, func(pt point) (Fig13aRow, error) {
		cfg := fig13aConfig{Benchmark: prog.Name, Scheme: pt.scheme.String(), D: pt.d,
			Trials: opt.Trials, Seed: opt.Seed, FitLosses: opt.FitLosses}
		pay, err := cachedRow(opt, "fig13a", cfg, func() (fig13aPayload, error) {
			deltaD := layout.ChooseDeltaD(dm, pt.d, layout.DefaultAlphaBlock)
			rng := opt.pointRNG(kindFig13a, int64(pt.d), int64(pt.scheme))
			est := estimator.EstimateProgram(prog, fws[pt.scheme], pt.d, deltaD, dm, lm, opt.Trials, rng)
			return fig13aPayload{Qubits: est.PhysicalQubits, Risk: est.RetryRisk}, nil
		})
		return Fig13aRow{Scheme: pt.scheme, D: pt.d, Qubits: pay.Qubits, Risk: pay.Risk}, err
	})
}

// RenderFig13a prints the trade-off lines.
func RenderFig13a(w io.Writer, rows []Fig13aRow) {
	fmt.Fprintf(w, "%-16s %-4s %-14s %-10s\n", "scheme", "d", "#qubits", "risk")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-4d %-14.3e %-10.5f\n", r.Scheme, r.D, float64(r.Qubits), r.Risk)
	}
}

// ---------------------------------------------------------------------------
// Fig. 13b: chiplet yield under static faults
// ---------------------------------------------------------------------------

// Fig13bRow is one yield measurement.
type Fig13bRow struct {
	NumFaults int
	ASCYield  float64
	SurfYield float64
}

// Fig13b measures the yield of deforming an l-sized patch with k static
// faulty qubits into a code of distance ≥ target: the fraction of fault
// patterns for which the deformed patch still meets the target distance.
// The paper uses l = 35 → target 27; Quick mode scales down. Fault counts
// run as pooled points, each with its own derived fault-pattern stream.
func Fig13b(opt Options) ([]Fig13bRow, error) {
	l, target := 35, 27
	counts := []int{0, 10, 20, 30, 40}
	samples := opt.Trials / 4
	if opt.Quick {
		l, target = 15, 11
		counts = []int{0, 6, 12}
		samples = 6
	} else if err := opt.checkTrials("fig13b"); err != nil {
		return nil, err
	}
	if samples < 3 {
		samples = 3
	}
	return runGrid(opt, counts, func(k int) (Fig13bRow, error) {
		rng := opt.pointRNG(kindFig13b, int64(l), int64(k))
		ascOK, surfOK := 0, 0
		for s := 0; s < samples; s++ {
			base := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, l)
			min, max := base.Bounds()
			faults := defect.StaticFaults(min, max, k, rng)
			if removalDistance(faults, l, deform.PolicyASC) >= target {
				ascOK++
			}
			if removalDistance(faults, l, deform.PolicySurfDeformer) >= target {
				surfOK++
			}
		}
		return Fig13bRow{
			NumFaults: k,
			ASCYield:  float64(ascOK) / float64(samples),
			SurfYield: float64(surfOK) / float64(samples),
		}, nil
	})
}

// RenderFig13b prints the yield curves.
func RenderFig13b(w io.Writer, rows []Fig13bRow) {
	fmt.Fprintf(w, "%-10s %-10s %-10s\n", "#faults", "asc-s", "surf-deformer")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %-10.2f %-10.2f\n", r.NumFaults, r.ASCYield, r.SurfYield)
	}
}
