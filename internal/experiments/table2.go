package experiments

import (
	"fmt"
	"io"

	"surfdeformer/internal/estimator"
	"surfdeformer/internal/layout"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/program"
)

// Table2Row is one benchmark × distance row of the end-to-end comparison.
type Table2Row struct {
	Program *program.Program
	D       int

	Q3DEQubits      int
	Q3DEOverRuntime bool
	ASCQubits       int
	ASCRetryRisk    float64
	SurfQubits      int
	SurfRetryRisk   float64
	DeltaD          int
}

// table2Config is the store identity of one (benchmark, d) row.
type table2Config struct {
	Benchmark string `json:"benchmark"`
	D         int    `json:"d"`
	Trials    int    `json:"trials"`
	Seed      int64  `json:"seed"`
	FitLosses bool   `json:"fit_losses,omitempty"`
}

// table2Payload is the stored result of one row minus its identity fields.
type table2Payload struct {
	DeltaD          int     `json:"delta_d"`
	Q3DEQubits      int     `json:"q3de_qubits"`
	Q3DEOverRuntime bool    `json:"q3de_over_runtime"`
	ASCQubits       int     `json:"asc_qubits"`
	ASCRetryRisk    float64 `json:"asc_retry_risk"`
	SurfQubits      int     `json:"surf_qubits"`
	SurfRetryRisk   float64 `json:"surf_retry_risk"`
}

// Table2 reproduces the end-to-end evaluation: for every benchmark program
// and the paper's two distances per row, the physical qubit count and retry
// risk of Q3DE, ASC-S and Surf-Deformer. (benchmark, d) rows run on the
// point-level pool; each row's three scheme estimates share one derived
// defect-timeline stream so the schemes face comparable timelines.
func Table2(opt Options) ([]Table2Row, error) {
	if err := opt.checkTrials("table2"); err != nil {
		return nil, err
	}
	dm, lm, fws := estimators(opt)
	pairs := paperDistancePairs()
	benches := program.Benchmarks()
	if opt.Quick {
		benches = benches[:2]
	}
	type point struct {
		prog *program.Program
		d    int
	}
	var grid []point
	for _, prog := range benches {
		ds, ok := pairs[prog.Name]
		if !ok {
			ds = [2]int{19, 21}
		}
		for _, d := range ds {
			grid = append(grid, point{prog, d})
		}
	}
	return runGrid(opt, grid, func(pt point) (Table2Row, error) {
		cfg := table2Config{Benchmark: pt.prog.Name, D: pt.d,
			Trials: opt.Trials, Seed: opt.Seed, FitLosses: opt.FitLosses}
		pay, err := cachedRow(opt, "table2", cfg, func() (table2Payload, error) {
			rng := opt.pointRNG(kindTable2, mc.StringSeed(pt.prog.Name), int64(pt.d))
			deltaD := layout.ChooseDeltaD(dm, pt.d, layout.DefaultAlphaBlock)
			q3de := estimator.EstimateProgram(pt.prog, fws[layout.Q3DE], pt.d, deltaD, dm, lm, opt.Trials, rng)
			asc := estimator.EstimateProgram(pt.prog, fws[layout.ASCS], pt.d, deltaD, dm, lm, opt.Trials, rng)
			surf := estimator.EstimateProgram(pt.prog, fws[layout.SurfDeformer], pt.d, deltaD, dm, lm, opt.Trials, rng)
			return table2Payload{
				DeltaD:          deltaD,
				Q3DEQubits:      q3de.PhysicalQubits,
				Q3DEOverRuntime: q3de.OverRuntime,
				ASCQubits:       asc.PhysicalQubits,
				ASCRetryRisk:    asc.RetryRisk,
				SurfQubits:      surf.PhysicalQubits,
				SurfRetryRisk:   surf.RetryRisk,
			}, nil
		})
		return Table2Row{
			Program:         pt.prog,
			D:               pt.d,
			DeltaD:          pay.DeltaD,
			Q3DEQubits:      pay.Q3DEQubits,
			Q3DEOverRuntime: pay.Q3DEOverRuntime,
			ASCQubits:       pay.ASCQubits,
			ASCRetryRisk:    pay.ASCRetryRisk,
			SurfQubits:      pay.SurfQubits,
			SurfRetryRisk:   pay.SurfRetryRisk,
		}, err
	})
}

// RenderTable2 prints the table in the paper's format.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-16s %-4s | %-12s %-12s | %-12s %-12s | %-12s %-12s\n",
		"Benchmark", "d", "Q3DE #qubit", "Q3DE risk", "ASC #qubit", "ASC risk", "Surf #qubit", "Surf risk")
	fmt.Fprintln(w, strRepeat("-", 110))
	for _, r := range rows {
		q3deRisk := "OverRuntime"
		if !r.Q3DEOverRuntime {
			q3deRisk = fmt.Sprintf("%.2f%%", 100*r.ASCRetryRisk)
		}
		fmt.Fprintf(w, "%-16s %-4d | %-12.2e %-12s | %-12.2e %-12.2f%% | %-12.2e %-12.2f%%\n",
			r.Program.Name, r.D,
			float64(r.Q3DEQubits), q3deRisk,
			float64(r.ASCQubits), 100*r.ASCRetryRisk,
			float64(r.SurfQubits), 100*r.SurfRetryRisk)
	}
}
