package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"surfdeformer/internal/defect"
	"surfdeformer/internal/layout"
	"surfdeformer/internal/route"
)

// Fig11cRow is one point of the throughput study: a task set at one defect
// rate under one layout scheme.
type Fig11cRow struct {
	TaskSet    int
	DefectRate float64 // defect events per qubit per cycle
	Scheme     layout.Scheme
	Throughput float64
	Stalls     int
}

// fig11cConfig is the store identity of one (task set, rate, scheme) point.
// Rev tracks semantic changes to the point computation: rev 1 made the
// router deterministic (RNG-free tie-breaks), shifting which contended
// operations route first, so rev-0 rows must not be served.
type fig11cConfig struct {
	TaskSet int     `json:"task_set"`
	Rate    float64 `json:"rate"`
	Scheme  string  `json:"scheme"`
	Samples int     `json:"samples"`
	Seed    int64   `json:"seed"`
	Rev     int     `json:"rev,omitempty"`
}

// Fig11c measures communication throughput on the Surf-Deformer layout
// versus Q3DE's fixed layout across defect rates, for three task sets of
// increasing serialization, against the no-defect lattice-surgery optimum.
//
// Per the paper: 100 logical qubits; each task set has 5 tasks of 25 CNOTs
// over 50 distinct logical qubits; defects are sampled repeatedly and the
// mean throughput reported. A struck patch under Q3DE doubles and blocks
// its channels for the defect duration (here: the whole task-set window);
// under Surf-Deformer a patch only blocks when more events strike it than
// the Δd reserve absorbs.
//
// Grid points run on the point-level pool. A task set's operation list is
// derived from (Seed, set) alone so every (rate, scheme) point of a set
// routes the identical workload; each point's strike sampling derives from
// its own content.
func Fig11c(opt Options) ([]Fig11cRow, error) {
	nQubits := 100
	gridSide := 10
	rates := []float64{0, 0.5e-4, 1e-4, 1.5e-4, 2e-4}
	samples := opt.Trials
	if opt.Quick {
		rates = []float64{0, 1e-4, 2e-4}
		samples = 10
	} else if err := opt.checkTrials("fig11c"); err != nil {
		return nil, err
	}
	d := 21
	dm := defect.Paper()
	deltaD := layout.ChooseDeltaD(dm, d, layout.DefaultAlphaBlock)
	defectSize := 2 * dm.Radius
	patchQubits := 2 * d * d
	// The sweep's x-axis is the defect event rate per qubit per second;
	// the task set is exposed to strikes over this window (events persist
	// for the whole set, so strikes accumulate).
	const exposureSeconds = 2.0

	type point struct {
		set    int
		rate   float64
		scheme layout.Scheme
	}
	var grid []point
	for setIdx := 0; setIdx < 3; setIdx++ {
		for _, rate := range rates {
			for _, scheme := range []layout.Scheme{layout.SurfDeformer, layout.Q3DE} {
				grid = append(grid, point{set: setIdx, rate: rate, scheme: scheme})
			}
		}
	}
	return runGrid(opt, grid, func(pt point) (Fig11cRow, error) {
		cfg := fig11cConfig{TaskSet: pt.set + 1, Rate: pt.rate, Scheme: pt.scheme.String(),
			Samples: samples, Seed: opt.Seed, Rev: 1}
		return cachedRow(opt, "fig11c", cfg, func() (Fig11cRow, error) {
			ops := taskSet(pt.set, gridSide, opt.pointRNG(kindFig11c, int64(pt.set)))
			// The stream derives from the rate VALUE so a point's result
			// survives reordering or subsetting the rates grid.
			rng := opt.pointRNG(kindFig11c, int64(pt.set), int64(math.Round(pt.rate*1e9)), int64(pt.scheme))
			thSum := 0.0
			stalls := 0
			for s := 0; s < samples; s++ {
				grid := route.NewGrid(gridSide, gridSide)
				// Strikes per patch over the window.
				lambda := pt.rate * float64(patchQubits) * exposureSeconds
				for cell := 0; cell < nQubits; cell++ {
					strikes := defect.Poisson(lambda, rng)
					if strikes == 0 {
						continue
					}
					switch pt.scheme {
					case layout.Q3DE:
						grid.SetBlocked(cell, true)
					case layout.SurfDeformer:
						if strikes > deltaD/defectSize {
							grid.SetBlocked(cell, true)
						}
					}
				}
				res := grid.RunTasks(ops, 600)
				thSum += res.Throughput
				if res.Stalled {
					stalls++
				}
			}
			return Fig11cRow{
				TaskSet:    pt.set + 1,
				DefectRate: pt.rate,
				Scheme:     pt.scheme,
				Throughput: thSum / float64(samples),
				Stalls:     stalls,
			}, nil
		})
	})
}

// taskSet builds the three workloads of increasing serialization: 5 tasks ×
// 25 CNOTs over 50 distinct qubits. Higher set indices reuse qubits across
// consecutive operations more, lengthening the critical path (the paper's
// 16/19/22-step parallelism levels).
func taskSet(level, gridSide int, rng *rand.Rand) []route.CNOT {
	n := gridSide * gridSide
	perm := rng.Perm(n)[:50]
	var ops []route.CNOT
	for task := 0; task < 5; task++ {
		qubits := perm[task*10:] // tasks share tails of the qubit list
		if len(qubits) > 10+level*5 {
			qubits = qubits[:10+level*5]
		}
		for i := 0; i < 25; i++ {
			a := qubits[i%len(qubits)]
			b := qubits[(i+1+level)%len(qubits)]
			if a == b {
				b = qubits[(i+2+level)%len(qubits)]
			}
			ops = append(ops, route.CNOT{Control: a, Target: b})
		}
	}
	return ops
}

// RenderFig11c prints the throughput series.
func RenderFig11c(w io.Writer, rows []Fig11cRow) {
	fmt.Fprintf(w, "%-8s %-12s %-16s %-12s %-8s\n", "taskset", "defect-rate", "scheme", "throughput", "stalls")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-12.1e %-16s %-12.3f %-8d\n", r.TaskSet, r.DefectRate, r.Scheme, r.Throughput, r.Stalls)
	}
}
