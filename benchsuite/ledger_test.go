package main

import (
	"bytes"
	"testing"

	"surfdeformer/internal/obs"
)

// TestLedgerAttribution feeds a synthetic event stream through an
// obs.Tracer into a stampSink driven by a fake clock and fake histogram
// sums, and pins how every gap is split: build/patch deltas and epoch
// sample/decode timings first, the remainder to the layer whose call the
// gap closes, and gaps no layer owns to other.
func TestLedgerAttribution(t *testing.T) {
	var clock, build, patch int64
	sink := &stampSink{
		now:  func() int64 { return clock },
		sums: func() (int64, int64) { return build, patch },
	}
	tr := obs.NewTracer(sink)
	emit := func(advance, dBuild, dPatch int64, ev obs.TraceEvent) {
		clock += advance
		build += dBuild
		patch += dPatch
		ev.Arm = "surf-deformer"
		tr.Emit(ev)
	}
	sink.mark()
	// epoch: 100 ns with a 30 ns build inside, 10 ns sampling, 20 ns decoding.
	emit(100, 30, 0, obs.TraceEvent{Type: obs.TraceEpoch, Cycles: 6, SampleNs: 10, DecodeNs: 20})
	emit(5, 0, 0, obs.TraceEvent{Type: obs.TraceDetect, Flags: 1})             // attribute
	emit(1, 0, 0, obs.TraceEvent{Type: obs.TraceMitigate, Severity: "remove"}) // other
	emit(50, 20, 5, obs.TraceEvent{Type: obs.TraceDeform, Defects: 1})         // Step: 25 after build+patch
	emit(7, 0, 0, obs.TraceEvent{Type: obs.TraceRecover, Sites: 1})            // Recover
	emit(3, 0, 0, obs.TraceEvent{Type: obs.TraceSurgery, Pending: 2, Routed: 1})
	emit(2, 0, 0, obs.TraceEvent{Type: obs.TraceMitigate, Severity: "remove"}) // other
	// A Step that deformed nothing emits no deform event: the gap up to the
	// next recover mixes two calls and must not be charged to Recover.
	emit(9, 0, 0, obs.TraceEvent{Type: obs.TraceRecover, Sites: 1})
	emit(4, 0, 0, obs.TraceEvent{Type: obs.TraceEnd})
	clock += 6
	sink.mark()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	l, err := sink.ledger()
	if err != nil {
		t.Fatal(err)
	}
	want := [numLayers]int64{
		layerBuild: 50, layerPatch: 5, layerSample: 10, layerDecode: 20,
		layerAttribute: 5, layerStep: 25, layerRecover: 7, layerRoute: 3,
		layerOther: 40 + 1 + 2 + 9 + 4 + 6,
	}
	if l.ns != want {
		t.Errorf("layer ns %v, want %v", l.ns, want)
	}
	if l.wall != 187 {
		t.Errorf("wall %d, want 187", l.wall)
	}
	var sum float64
	for _, p := range l.pct() {
		sum += p
	}
	if sum < 100-1e-9 || sum > 100+1e-9 {
		t.Errorf("shares sum to %g%%, want 100%%", sum)
	}
	wantEvents := map[string]int{
		obs.TraceEpoch: 1, obs.TraceDetect: 1, obs.TraceMitigate: 2, obs.TraceDeform: 1,
		obs.TraceRecover: 2, obs.TraceSurgery: 1, obs.TraceEnd: 1,
	}
	for typ, n := range wantEvents {
		if l.events[typ] != n {
			t.Errorf("%d %s events, want %d", l.events[typ], typ, n)
		}
	}
	if l.routed != 1 {
		t.Errorf("routed %d, want 1", l.routed)
	}
	if n, err := obs.ValidateTrace(bytes.NewReader(sink.trace())); err != nil || n != 9 {
		t.Errorf("recorded trace: %d valid events, err %v; want 9, nil", n, err)
	}
}
