package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the schema of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON pins BENCHMARK.json to its format limits and to the
// suite code: the declared workloads and metrics are exactly the ones the
// code runs and prints, with the same units and directions, and every
// per-layer metric maps to declared end-to-end metrics and workloads.
func TestBenchmarkJSON(t *testing.T) {
	f := readBenchmark(t)
	if len(f.Paths) != 1 || f.Paths[0] != "benchsuite" {
		t.Errorf("paths %v, want [benchsuite]", f.Paths)
	}
	if len(f.Command) == 0 || len(f.Command) > 32 {
		t.Errorf("command has %d arguments", len(f.Command))
	}
	for _, arg := range f.Command {
		if len(arg) > 200 || (strings.Contains(arg, "/") && !strings.HasPrefix(arg, "benchsuite/")) {
			t.Errorf("command argument %q is too long or names a path outside benchsuite", arg)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", f.RunSeconds)
	}

	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	checkMetric := func(kind string, i int, got, want metric) {
		checkName(got.name)
		if !unitRE.MatchString(got.unit) {
			t.Errorf("%s %q: unit %q does not match %s", kind, got.name, got.unit, unitRE)
		}
		if got != want {
			t.Errorf("%s[%d] declared %+v, the suite prints %+v", kind, i, got, want)
		}
	}

	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	ws := workloads()
	workloadNames := map[string]bool{}
	for i, w := range f.Workloads {
		checkName(w.Name)
		workloadNames[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %q: why must be one line of 1 to 200 characters", w.Name)
		}
		if i >= len(ws) || ws[i].name != w.Name {
			t.Errorf("workload %d declared %q, the suite does not run it there", i, w.Name)
		}
	}
	if len(ws) != len(f.Workloads) {
		t.Errorf("the suite runs %d workloads, %d declared", len(ws), len(f.Workloads))
	}

	if n := len(f.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, the suite prints %d (1 to 16 allowed)", n, len(endToEnd))
	}
	endToEndNames := map[string]bool{}
	maxBound := 0.0
	for i, m := range f.EndToEnd {
		checkMetric("end_to_end", i, metric{m.Name, m.Unit, m.Better}, endToEnd[i])
		endToEndNames[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	setup := false
	for _, m := range f.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower" && m.Bound == maxBound
		}
	}
	if !setup {
		t.Error("setup_s must be declared in s, lower is better, with the largest bound")
	}

	if n := len(f.PerLayer); n < 1 || n > 128 || n != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, the suite prints %d (1 to 128 allowed)", n, len(layerMetrics))
	}
	for i, m := range f.PerLayer {
		lmet := layerMetrics[i]
		checkMetric("per_layer", i, metric{m.Name, m.Unit, m.Better}, lmet.metric)
		if len(lmet.moves) == 0 || len(lmet.on) == 0 {
			t.Errorf("per-layer %q maps to no end-to-end metric or workload", m.Name)
		}
		for _, e := range lmet.moves {
			if !endToEndNames[e] {
				t.Errorf("per-layer %q moves undeclared end-to-end metric %q", m.Name, e)
			}
		}
		for _, w := range lmet.on {
			if !workloadNames[w] {
				t.Errorf("per-layer %q names undeclared workload %q", m.Name, w)
			}
		}
	}
}

// shrink cuts a workload to a test-only size; the set-up, batch, check,
// determinism and probe paths stay the same.
func shrink(w *workload) {
	w.scalar = 200
	switch e := w.eng.(type) {
	case *memoryEngine:
		w.warm, w.batch = 512, 2048
	case *trajEngine:
		w.warm, w.batch = 1, 1
		e.cfg.Horizon = 160
	}
}

// TestSuiteSmoke runs every workload untraced and traced at a tiny size and
// checks that the run is correct with no failed operation, prints exactly
// the declared metrics, never charges a layer a negative time (the named
// layers do not double-count), and that both runs agree on batch 0's
// digest although they use different worker counts.
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmark(t)
	declared := func(traced bool) map[string]string {
		out := map[string]string{}
		if traced {
			for _, m := range f.PerLayer {
				out[m.Name] = m.Unit
			}
		} else {
			for _, m := range f.EndToEnd {
				out[m.Name] = m.Unit
			}
		}
		return out
	}
	untraced, traced := workloads(), workloads()
	for i := range untraced {
		plain, tw := untraced[i], traced[i]
		shrink(plain)
		shrink(tw)
		t.Run(plain.name, func(t *testing.T) {
			var digests [2]string
			for j, w := range []*workload{plain, tw} {
				isTraced := j == 1
				var log bytes.Buffer
				rep, digest, err := measure(w, 1, time.Millisecond, isTraced, &log)
				if err != nil {
					t.Fatalf("traced=%v: %v", isTraced, err)
				}
				digests[j] = digest
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("traced=%v: correct %v, %d of %d failed\n%s", isTraced, rep.Correct, rep.Failed, rep.Attempted, log.String())
				}
				want := declared(isTraced)
				if len(rep.Metrics) != len(want) {
					t.Errorf("traced=%v: printed %d metrics, %d declared", isTraced, len(rep.Metrics), len(want))
				}
				for name, unit := range want {
					if got, ok := rep.Metrics[name]; !ok || got.Unit != unit {
						t.Errorf("traced=%v: metric %q printed as %+v (present %v), declared unit %q", isTraced, name, got, ok, unit)
					}
				}
				if !isTraced {
					continue
				}
				sum := 0.0
				for _, name := range layerPct {
					v := rep.Metrics[name].Value
					if v < 0 {
						t.Errorf("%s = %g: a layer was charged negative time", name, v)
					}
					sum += v
				}
				if sum < 100-1e-6 || sum > 100+1e-6 {
					t.Errorf("layer shares sum to %g%%, want 100%%", sum)
				}
			}
			if digests[0] == "" || digests[0] != digests[1] {
				t.Errorf("batch 0 digest %q untraced, %q traced", digests[0], digests[1])
			}
		})
	}
}
