package experiments

import (
	"bytes"
	"strings"
	"testing"

	"surfdeformer/internal/estimator"
	"surfdeformer/internal/layout"
	"surfdeformer/internal/program"
	"surfdeformer/internal/sim"
)

func TestTableConverters(t *testing.T) {
	t2 := Table2Table([]Table2Row{{
		Program: program.Simon(400, 1000), D: 19, DeltaD: 4,
		Q3DEQubits: 100, Q3DEOverRuntime: true,
		ASCQubits: 100, ASCRetryRisk: 0.5,
		SurfQubits: 120, SurfRetryRisk: 0.01,
	}})
	if len(t2.Rows) != 1 || t2.Rows[0][0] != "simon-400-1000" {
		t.Errorf("table2 conversion: %+v", t2.Rows)
	}

	f11a := Fig11aTable([]Fig11aRow{{D: 9, NumDefects: 5, UntreatedLE: 1e-2, RemovedLE: 1e-4}})
	var buf bytes.Buffer
	if err := f11a.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.01") {
		t.Errorf("fig11a CSV: %s", buf.String())
	}

	f11c := Fig11cTable([]Fig11cRow{{TaskSet: 1, DefectRate: 1e-4, Scheme: layout.Q3DE, Throughput: 1.5, Stalls: 3}})
	if f11c.Rows[0][2] != "q3de" {
		t.Errorf("fig11c scheme cell: %q", f11c.Rows[0][2])
	}

	f12 := Fig12Table([]Fig12Row{{Program: program.Grover(9, 80), Scheme: layout.SurfDeformer, D: 23, Qubits: 1000, Risk: 0.009, Reached: true}})
	if f12.Rows[0][5] != "true" {
		t.Errorf("fig12 reached cell: %q", f12.Rows[0][5])
	}

	f13a := Fig13aTable([]Fig13aRow{{Scheme: layout.ASCS, D: 19, Qubits: 5, Risk: 0.2}})
	f13b := Fig13bTable([]Fig13bRow{{NumFaults: 10, ASCYield: 0.5, SurfYield: 0.9}})
	f14a := Fig14aTable([]Fig14aRow{{PCorrelated: 1e-3, NumDefects: 5, UntreatedLE: 0.1, RemovedLE: 0.01}})
	f14b := Fig14bTable([]Fig14bRow{{NumDefects: 5, UntreatedLE: 0.1, PreciseLE: 0.01, ImpreciseLE: 0.012}})
	f11b := Fig11bTable([]Fig11bRow{{D: 9, NumDefects: 5, ASCMean: 2, SurfMean: 5}})
	pipe := PipelineTable(&PipelineResult{Trials: 10, Detected: 9, DetectionLatency: 2.5, Recall: 0.5, Precision: 0.4, DistanceAfter: 8.5})
	cal := CalibrateTable([]CalibrateRow{{
		CalibrationPoint: estimator.CalibrationPoint{P: 4e-3, D: 5, Lambda: 3e-3},
		Z:                sim.MemoryResult{PerRound: 1e-3, Failures: 3, Shots: 100},
		X:                sim.MemoryResult{PerRound: 2e-3, Failures: 6, Shots: 100, EarlyStopped: true},
	}}, &estimator.LambdaModel{P: 4e-3, PThreshold: 1e-2, A: 0.1})
	if got := strings.Join(cal.Rows[0], ","); got != "0.004,5,0.001,0.002,0.003,0.0064,3,6,100,100,true" {
		t.Errorf("calibrate row: %s", got)
	}
	for name, rows := range map[string]int{
		"fig13a": len(f13a.Rows), "fig13b": len(f13b.Rows),
		"fig14a": len(f14a.Rows), "fig14b": len(f14b.Rows),
		"fig11b": len(f11b.Rows), "pipeline": len(pipe.Rows),
	} {
		if rows != 1 {
			t.Errorf("%s converted %d rows, want 1", name, rows)
		}
	}
}

func TestFitLossesOption(t *testing.T) {
	opt := QuickOptions()
	opt.FitLosses = true
	opt.Trials = 8
	rows, err := Table2(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SurfRetryRisk >= r.ASCRetryRisk {
			t.Errorf("%s d=%d: fitted losses broke the ordering (surf %.4f >= asc %.4f)",
				r.Program.Name, r.D, r.SurfRetryRisk, r.ASCRetryRisk)
		}
	}
}
