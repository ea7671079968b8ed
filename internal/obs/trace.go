package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TraceSchemaVersion is the version stamped into every trace event. Bump it
// whenever an existing field changes meaning or a required field is added;
// adding optional fields is backward-compatible and needs no bump.
const TraceSchemaVersion = 1

// Trace event types, one per epoch transition of the closed-loop runtime
// (the fig. 5 loop): a sampled chunk elapsed, the detector fired, the
// mitigation ladder routed the elevation, a deformation or decoder-prior
// reweight was applied, a recovery was confirmed, the trajectory ended.
const (
	TraceEpoch    = "epoch"
	TraceDetect   = "detect"
	TraceMitigate = "mitigate"
	TraceDeform   = "deform"
	TraceReweight = "reweight"
	TraceRecover  = "recover"
	TraceSurgery  = "surgery"
	TraceEnd      = "end"
)

// traceTypes is the closed set a valid line's type must belong to.
var traceTypes = map[string]bool{
	TraceEpoch: true, TraceDetect: true, TraceMitigate: true,
	TraceDeform: true, TraceReweight: true, TraceRecover: true,
	TraceSurgery: true, TraceEnd: true,
}

// TraceEvent is one JSONL line of a trajectory trace. V, Type, Cycle, Arm
// and Traj are present on every event; the remaining fields are populated
// per type (see the schema table in DESIGN.md §10). Wall-clock costs
// (DecodeNs, SampleNs) are measurements of this machine, not of the
// simulation — everything else is deterministic for a fixed (config, arm,
// seed).
type TraceEvent struct {
	V     int    `json:"v"`
	Type  string `json:"type"`
	Cycle int64  `json:"cycle"`
	Arm   string `json:"arm"`
	Traj  int    `json:"traj"`
	// Patch localizes per-patch events (detect/deform/recover/reweight) in a
	// layout-level trajectory; single-patch trajectories omit it (patch 0).
	Patch int `json:"patch,omitempty"`

	// epoch: one scored or cut chunk.
	Cycles   int64 `json:"cycles,omitempty"`    // chunk length actually credited
	DecodeNs int64 `json:"decode_ns,omitempty"` // decoder cost of the chunk's shots, summed over patches
	SampleNs int64 `json:"sample_ns,omitempty"` // sampler cost of the chunk's shots, summed over patches
	Failed   bool  `json:"failed,omitempty"`    // the scored chunk was a logical failure on some patch

	// detect: the window detector flagged new observables.
	Flags  int `json:"flags,omitempty"`  // freshly flagged stable ids
	Region int `json:"region,omitempty"` // estimated hardware region size

	// mitigate: how the arm's ladder routed the detection.
	Severity string `json:"severity,omitempty"` // "remove", "super", "observe"

	// deform / recover: the code changed shape.
	Defects  int  `json:"defects,omitempty"`  // defect sites handed to Step
	Enlarged bool `json:"enlarged,omitempty"` // the patch grew into its reserve
	Sites    int  `json:"sites,omitempty"`    // sites reincorporated by Recover
	Distance int  `json:"distance,omitempty"` // min(dX, dZ) after the change

	// reweight: the decoder-prior overlay changed.
	Overlay  int     `json:"overlay,omitempty"`   // overlaid sites (0 = reset to nominal)
	MaxMult  float64 `json:"max_mult,omitempty"`  // largest quantized rate multiplier
	DEMBuild bool    `json:"dem_build,omitempty"` // this overlay cost a fresh decode-DEM build

	// surgery: one lattice-surgery routing attempt of a layout trajectory.
	Pending int `json:"pending,omitempty"` // eligible operations this attempt
	Routed  int `json:"routed,omitempty"`  // operations executed this attempt

	// end: trajectory summary (mirrors traj.Result counters).
	Epochs        int  `json:"epochs,omitempty"`
	Failures      int  `json:"failures,omitempty"`
	Deformations  int  `json:"deformations,omitempty"`
	Recoveries    int  `json:"recoveries,omitempty"`
	Reweights     int  `json:"reweights,omitempty"`
	OverlayBuilds int  `json:"overlay_dem_builds,omitempty"`
	Severed       bool `json:"severed,omitempty"`
}

// Tracer writes structured trace events as JSONL, one line per event,
// stamped with the schema version. It is safe for concurrent use — the
// point-level worker pool traces interleaved trajectories into one file,
// with each line attributable through its (arm, traj) fields. A nil
// *Tracer is a valid no-op, so call sites need no guards.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewTracer returns a tracer writing to w. The caller owns w's lifetime
// (close the file after the run; the tracer only writes).
func NewTracer(w io.Writer) *Tracer { return &Tracer{w: w} }

// Emit writes one event. The schema version is stamped here, so callers
// never set V. Marshal or write errors are sticky and reported by Err —
// tracing must never abort a simulation mid-flight.
func (t *Tracer) Emit(ev TraceEvent) {
	if t == nil {
		return
	}
	ev.V = TraceSchemaVersion
	b, err := json.Marshal(ev)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(append(b, '\n')); err != nil {
		t.err = err
	}
}

// Err returns the first write or marshal error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// ValidateTraceLine checks one JSONL line against the trace schema:
// parseable JSON with no unknown fields, the current schema version, a
// known event type, a non-negative cycle stamp, a non-empty arm, and
// non-negative count fields. It is the programmatic schema contract behind
// TestTraceSchema and the CI trace-validation step.
func ValidateTraceLine(line []byte) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var ev TraceEvent
	if err := dec.Decode(&ev); err != nil {
		return fmt.Errorf("obs: trace line is not a schema event: %w", err)
	}
	if ev.V != TraceSchemaVersion {
		return fmt.Errorf("obs: trace schema version %d, want %d", ev.V, TraceSchemaVersion)
	}
	if !traceTypes[ev.Type] {
		return fmt.Errorf("obs: unknown trace event type %q", ev.Type)
	}
	if ev.Cycle < 0 {
		return fmt.Errorf("obs: %s event with negative cycle %d", ev.Type, ev.Cycle)
	}
	if ev.Arm == "" {
		return fmt.Errorf("obs: %s event without an arm", ev.Type)
	}
	if ev.Traj < 0 {
		return fmt.Errorf("obs: %s event with negative trajectory index %d", ev.Type, ev.Traj)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"cycles", ev.Cycles}, {"decode_ns", ev.DecodeNs}, {"sample_ns", ev.SampleNs},
		{"flags", int64(ev.Flags)}, {"region", int64(ev.Region)},
		{"defects", int64(ev.Defects)}, {"sites", int64(ev.Sites)}, {"distance", int64(ev.Distance)},
		{"overlay", int64(ev.Overlay)},
		{"patch", int64(ev.Patch)}, {"pending", int64(ev.Pending)}, {"routed", int64(ev.Routed)},
		{"epochs", int64(ev.Epochs)}, {"failures", int64(ev.Failures)},
		{"deformations", int64(ev.Deformations)}, {"recoveries", int64(ev.Recoveries)},
		{"reweights", int64(ev.Reweights)}, {"overlay_dem_builds", int64(ev.OverlayBuilds)},
	} {
		if f.v < 0 {
			return fmt.Errorf("obs: %s event with negative %s", ev.Type, f.name)
		}
	}
	if ev.MaxMult < 0 {
		return fmt.Errorf("obs: %s event with negative max_mult", ev.Type)
	}
	switch ev.Type {
	case TraceEpoch:
		if ev.Cycles <= 0 {
			return fmt.Errorf("obs: epoch event must credit at least one cycle")
		}
	case TraceMitigate:
		if ev.Severity == "" {
			return fmt.Errorf("obs: mitigate event without a severity")
		}
	}
	return nil
}

// ValidateTrace validates every non-empty line of an entire trace stream
// and returns the number of valid events. The first invalid line fails the
// whole stream with its line number.
func ValidateTrace(r io.Reader) (int, error) {
	n := 0
	line := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if err := ValidateTraceLine(sc.Bytes()); err != nil {
			return n, fmt.Errorf("line %d: %w", line, err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}
