package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"surfdeformer/internal/obs"
)

// Layers of the traced run's cost ledger, in the order layerPct lists their
// metric names.
const (
	layerBuild = iota
	layerPatch
	layerSample
	layerDecode
	layerAttribute
	layerStep
	layerRecover
	layerRoute
	layerOther
	numLayers
)

// layerPct names each layer's share-of-wall metric.
var layerPct = [numLayers]string{
	"sim.dem_build_pct", "sim.dem_patch_pct", "sim.sample_pct", "decoder.decode_pct",
	"detect.attribute_pct", "core.step_pct", "core.recover_pct", "route.attempt_pct", "other_pct",
}

// stamp is one trace line together with the wall clock and the running
// DEM build/patch nanosecond sums read as it was written. A nil line is a
// mark: the start or end of the traced batches.
type stamp struct {
	at, build, patch int64
	line             []byte
}

// stampSink is the traced run's trace writer. obs.Tracer writes each event
// as one complete line under its own mutex, so Write sees whole lines in
// emission order. Stamping costs a clock read and two atomic loads; the
// lines are kept in memory and parsed only after the run, so parsing never
// lands inside a measured gap.
type stampSink struct {
	now    func() int64                // wall clock, ns
	sums   func() (build, patch int64) // sim.dem.build_ns and patch_ns sums
	stamps []stamp
}

func newStampSink() *stampSink {
	origin := time.Now()
	build := obs.Default().Histogram("sim.dem.build_ns")
	patch := obs.Default().Histogram("sim.dem.patch_ns")
	return &stampSink{
		now:  func() int64 { return int64(time.Since(origin)) },
		sums: func() (int64, int64) { return build.Sum(), patch.Sum() },
	}
}

func (s *stampSink) Write(p []byte) (int, error) {
	s.stamp(bytes.Clone(p))
	return len(p), nil
}

// mark stamps the start or end of the traced batches.
func (s *stampSink) mark() { s.stamp(nil) }

func (s *stampSink) stamp(line []byte) {
	at := s.now()
	b, p := s.sums()
	s.stamps = append(s.stamps, stamp{at: at, build: b, patch: p, line: line})
}

// trace returns the recorded JSONL stream.
func (s *stampSink) trace() []byte {
	var buf bytes.Buffer
	for _, st := range s.stamps {
		buf.Write(st.line)
	}
	return buf.Bytes()
}

// ledger is the traced run's cost split: nanoseconds per layer (summing to
// wall exactly) and counts of the trace events.
type ledger struct {
	ns     [numLayers]int64
	wall   int64
	events map[string]int
	routed int // operations executed over all surgery attempts
}

// ledger splits every gap between consecutive stamps. The DEM build and
// patch histogram deltas and an epoch's own sample/decode timings are
// measured inside the gap; the remainder goes to the layer gapLayer names.
func (s *stampSink) ledger() (ledger, error) {
	l := ledger{events: map[string]int{}}
	if len(s.stamps) < 2 {
		return l, fmt.Errorf("trace has %d stamps, want the start and end marks at least", len(s.stamps))
	}
	prev := ""
	for i := 1; i < len(s.stamps); i++ {
		a, b := s.stamps[i-1], s.stamps[i]
		build, patch := b.build-a.build, b.patch-a.patch
		l.ns[layerBuild] += build
		l.ns[layerPatch] += patch
		rest := b.at - a.at - build - patch
		cur := ""
		if b.line != nil {
			var ev obs.TraceEvent
			if err := json.Unmarshal(b.line, &ev); err != nil {
				return l, fmt.Errorf("trace line %d: %w", i, err)
			}
			cur = ev.Type
			l.events[cur]++
			l.routed += ev.Routed
			if cur == obs.TraceEpoch {
				l.ns[layerSample] += ev.SampleNs
				l.ns[layerDecode] += ev.DecodeNs
				rest -= ev.SampleNs + ev.DecodeNs
			}
		}
		l.ns[gapLayer(prev, cur)] += rest
		prev = cur
	}
	l.wall = s.stamps[len(s.stamps)-1].at - s.stamps[0].at
	return l, nil
}

// gapLayer names the layer whose call the gap between events of types prev
// and cur closes ("" is a mark).
func gapLayer(prev, cur string) int {
	switch {
	case prev == obs.TraceMitigate && cur == obs.TraceDeform:
		return layerStep
	case prev == obs.TraceMitigate:
		// A Step or Super that changed nothing emits no deform event, so
		// this gap mixes it with the next call: no single layer owns it.
		return layerOther
	case cur == obs.TraceDetect:
		return layerAttribute
	case cur == obs.TraceRecover:
		return layerRecover
	case cur == obs.TraceSurgery:
		return layerRoute
	}
	return layerOther
}

// pct returns each layer's share of the wall time in percent.
func (l ledger) pct() [numLayers]float64 {
	var out [numLayers]float64
	if l.wall <= 0 {
		return out
	}
	for i, ns := range l.ns {
		out[i] = 100 * float64(ns) / float64(l.wall)
	}
	return out
}
