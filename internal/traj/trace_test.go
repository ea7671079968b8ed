package traj

import (
	"bytes"
	"reflect"
	"testing"

	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
)

// Tracing is observation only: a traced trajectory must return a Result
// bit-identical to the untraced run at the same (config, mode, seed), and
// the paired-seed contract — every arm facing the same seed sees the same
// defect timeline — must hold with the tracer attached. The emitted stream
// must also satisfy the schema contract end to end, for a single patch and
// for a 2-patch layout alike.
func TestRunTraceInvariant(t *testing.T) {
	t.Parallel()
	const seed = 7 // paired across arms: identical timelines per mode
	for _, shape := range []struct {
		name string
		cfg  func() Config
	}{{"single", QuickConfig}, {"layout", quickLayoutConfig}} {
		for _, mode := range allModes() {
			name := shape.name + "/" + mode.String()
			cfg := shape.cfg()
			cfg.Cache = sim.NewDEMCache(0)
			plain, err := Run(cfg, mode, seed)
			if err != nil {
				t.Fatalf("%s untraced: %v", name, err)
			}

			var buf bytes.Buffer
			traced := shape.cfg()
			traced.Cache = sim.NewDEMCache(0)
			traced.Trace = obs.NewTracer(&buf)
			traced.TraceTraj = 3
			got, err := Run(traced, mode, seed)
			if err != nil {
				t.Fatalf("%s traced: %v", name, err)
			}
			if !reflect.DeepEqual(got, plain) {
				t.Errorf("%s: traced result diverges from untraced:\n traced: %+v\nuntraced: %+v", name, got, plain)
			}
			if err := traced.Trace.Err(); err != nil {
				t.Fatalf("%s: tracer error: %v", name, err)
			}

			n, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: emitted trace fails schema validation: %v", name, err)
			}
			if n == 0 {
				t.Fatalf("%s: traced run emitted no events", name)
			}
			// Every trajectory closes with exactly one end event carrying the
			// Result's counters, attributed to the configured trajectory
			// index. Epoch events carry the chunk's shot timings (summed over
			// patches) and a failure mark on failed scored chunks.
			ends, timed, failedEpochs := 0, 0, 0
			for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
				if bytes.Contains(line, []byte(`"type":"epoch"`)) {
					if bytes.Contains(line, []byte(`"sample_ns"`)) && bytes.Contains(line, []byte(`"decode_ns"`)) {
						timed++
					}
					if bytes.Contains(line, []byte(`"failed":true`)) {
						failedEpochs++
					}
				}
				if bytes.Contains(line, []byte(`"type":"end"`)) {
					ends++
					for _, want := range []string{`"arm":"` + mode.String() + `"`, `"traj":3`} {
						if !bytes.Contains(line, []byte(want)) {
							t.Errorf("%s: end event %s missing %s", name, line, want)
						}
					}
				}
			}
			if ends != 1 {
				t.Errorf("%s: %d end events, want 1", name, ends)
			}
			if timed == 0 {
				t.Errorf("%s: no epoch event carries sample_ns/decode_ns", name)
			}
			if failedEpochs > got.Failures || (!got.Severed && (failedEpochs > 0) != (got.Failures > 0)) {
				t.Errorf("%s: %d failed epoch events for %d failures", name, failedEpochs, got.Failures)
			}
		}
	}
}
