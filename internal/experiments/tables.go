package experiments

import (
	"surfdeformer/internal/estimator"
	"surfdeformer/internal/report"
)

// Table converters: every experiment's row type can be rendered as a
// structured report.Table for CSV/JSON export (cmd/surfdeform -format).

// Table2Table converts Table II rows.
func Table2Table(rows []Table2Row) *report.Table {
	t := report.New("table2", "benchmark", "d", "delta_d",
		"q3de_qubits", "q3de_overruntime", "asc_qubits", "asc_retry_risk",
		"surf_qubits", "surf_retry_risk")
	for _, r := range rows {
		t.Add(r.Program.Name, r.D, r.DeltaD,
			r.Q3DEQubits, r.Q3DEOverRuntime, r.ASCQubits, r.ASCRetryRisk,
			r.SurfQubits, r.SurfRetryRisk)
	}
	return t
}

// Fig11aTable converts fig. 11a rows.
func Fig11aTable(rows []Fig11aRow) *report.Table {
	t := report.New("fig11a", "d", "num_defects", "untreated_rate", "removed_rate")
	for _, r := range rows {
		t.Add(r.D, r.NumDefects, r.UntreatedLE, r.RemovedLE)
	}
	return t
}

// Fig11bTable converts fig. 11b rows.
func Fig11bTable(rows []Fig11bRow) *report.Table {
	t := report.New("fig11b", "d", "num_defects", "asc_distance", "surf_distance")
	for _, r := range rows {
		t.Add(r.D, r.NumDefects, r.ASCMean, r.SurfMean)
	}
	return t
}

// Fig11cTable converts fig. 11c rows.
func Fig11cTable(rows []Fig11cRow) *report.Table {
	t := report.New("fig11c", "task_set", "defect_rate", "scheme", "throughput", "stalls")
	for _, r := range rows {
		t.Add(r.TaskSet, r.DefectRate, r.Scheme.String(), r.Throughput, r.Stalls)
	}
	return t
}

// Fig12Table converts fig. 12 rows.
func Fig12Table(rows []Fig12Row) *report.Table {
	t := report.New("fig12", "benchmark", "scheme", "d", "qubits", "risk", "met_target")
	for _, r := range rows {
		t.Add(r.Program.Name, r.Scheme.String(), r.D, r.Qubits, r.Risk, r.Reached)
	}
	return t
}

// Fig13aTable converts fig. 13a rows.
func Fig13aTable(rows []Fig13aRow) *report.Table {
	t := report.New("fig13a", "scheme", "d", "qubits", "risk")
	for _, r := range rows {
		t.Add(r.Scheme.String(), r.D, r.Qubits, r.Risk)
	}
	return t
}

// Fig13bTable converts fig. 13b rows.
func Fig13bTable(rows []Fig13bRow) *report.Table {
	t := report.New("fig13b", "num_faults", "asc_yield", "surf_yield")
	for _, r := range rows {
		t.Add(r.NumFaults, r.ASCYield, r.SurfYield)
	}
	return t
}

// Fig14aTable converts fig. 14a rows.
func Fig14aTable(rows []Fig14aRow) *report.Table {
	t := report.New("fig14a", "p_correlated", "num_defects", "untreated_rate", "removed_rate")
	for _, r := range rows {
		t.Add(r.PCorrelated, r.NumDefects, r.UntreatedLE, r.RemovedLE)
	}
	return t
}

// Fig14bTable converts fig. 14b rows.
func Fig14bTable(rows []Fig14bRow) *report.Table {
	t := report.New("fig14b", "num_defects", "untreated_rate", "precise_rate", "imprecise_rate")
	for _, r := range rows {
		t.Add(r.NumDefects, r.UntreatedLE, r.PreciseLE, r.ImpreciseLE)
	}
	return t
}

// SweepTable converts memory-sweep rows.
func SweepTable(rows []SweepRow) *report.Table {
	t := report.New("sweep", "d", "num_defects", "policy", "severed", "distance_after",
		"per_round", "shots", "failures", "ci_low", "ci_high", "early_stopped")
	for _, r := range rows {
		t.Add(r.D, r.NumDefects, r.Policy.String(), r.Severed, r.DistanceAfter,
			r.PerRound, r.Shots, r.Failures, r.CILow, r.CIHigh, r.EarlyStopped)
	}
	return t
}

// CalibrateTable converts calibration rows; fit_lambda is the fitted
// model's rate at each point, empty when there is no fit (m == nil).
func CalibrateTable(rows []CalibrateRow, m *estimator.LambdaModel) *report.Table {
	t := report.New("calibrate", "p", "d", "lambda_z", "lambda_x", "lambda", "fit_lambda",
		"failures_z", "failures_x", "shots_z", "shots_x", "early_stopped")
	for _, r := range rows {
		var fit any = ""
		if m != nil {
			fit = m.RateAt(r.P, r.D)
		}
		t.Add(r.P, r.D, r.Z.PerRound, r.X.PerRound, r.Lambda, fit,
			r.Z.Failures, r.X.Failures, r.Z.Shots, r.X.Shots, r.Z.EarlyStopped || r.X.EarlyStopped)
	}
	return t
}

// PipelineTable converts the detection-pipeline summary.
func PipelineTable(r *PipelineResult) *report.Table {
	t := report.New("pipeline", "trials", "detected", "latency_rounds", "recall", "precision", "distance_after")
	t.Add(r.Trials, r.Detected, r.DetectionLatency, r.Recall, r.Precision, r.DistanceAfter)
	return t
}
