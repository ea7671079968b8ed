package sim_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/decoder"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/store"

	. "surfdeformer/internal/sim"
)

func storedTestSetup(t *testing.T) (*code.Code, *noise.Model, RunOptions, *store.Store) {
	t.Helper()
	c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, 3))
	model := noise.Uniform(4e-3)
	o := RunOptions{
		Rounds:  3,
		Basis:   lattice.ZCheck,
		Factory: decoder.UnionFindFactory(),
		Shots:   2000,
		Seed:    11,
	}
	st, err := store.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return c, model, o, st
}

type storedCfg struct {
	D    int   `json:"d"`
	Seed int64 `json:"seed"`
}

// A stored point must be served bit-identically to the run that produced
// it — same counts, same floats, no Monte-Carlo work.
func TestRunMemoryStoredReplaysExactly(t *testing.T) {
	c, model, o, st := storedTestSetup(t)
	so := StoreOptions{Store: st, Resume: true, Kind: "test", Config: storedCfg{D: 3, Seed: 11}}

	fresh, fromStore, err := RunMemoryStored(c, model, nil, o, so)
	if err != nil {
		t.Fatal(err)
	}
	if fromStore {
		t.Fatal("first run cannot come from the store")
	}
	baseline, err := RunMemoryOpts(c, model, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, baseline) {
		t.Fatalf("stored path diverges from plain path:\n%+v\n%+v", fresh, baseline)
	}

	replay, fromStore, err := RunMemoryStored(c, model, nil, o, so)
	if err != nil {
		t.Fatal(err)
	}
	if !fromStore {
		t.Fatal("second run must be served from the store")
	}
	if !reflect.DeepEqual(replay, baseline) {
		t.Fatalf("replay diverges from baseline:\n%+v\n%+v", replay, baseline)
	}
}

// Growing the budget computes only the remainder under a fresh segment
// stream; the merged aggregate has the summed counts and a CI recomputed
// from them.
func TestRunMemoryStoredTopUp(t *testing.T) {
	c, model, o, st := storedTestSetup(t)
	so := StoreOptions{Store: st, Resume: true, Kind: "test", Config: storedCfg{D: 3, Seed: 11}}

	first, _, err := RunMemoryStored(c, model, nil, o, so)
	if err != nil {
		t.Fatal(err)
	}
	grow := o
	grow.Shots = 5000
	merged, fromStore, err := RunMemoryStored(c, model, nil, grow, so)
	if err != nil {
		t.Fatal(err)
	}
	if fromStore {
		t.Fatal("top-up must do Monte-Carlo work")
	}
	if merged.Shots != 5000 {
		t.Fatalf("merged shots %d, want 5000", merged.Shots)
	}
	// The remainder segment runs the documented segment stream; the merge
	// must equal first + that segment exactly.
	segOpts := grow
	segOpts.Shots = 3000
	segOpts.Seed = SegmentSeed(o.Seed, 1)
	seg, err := RunMemoryOpts(c, model, nil, segOpts)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Failures != first.Failures+seg.Failures {
		t.Fatalf("merged failures %d != %d + %d", merged.Failures, first.Failures, seg.Failures)
	}
	lo, hi := mc.WilsonInterval(merged.Failures, merged.Shots, mc.DefaultZ)
	if merged.CILow != lo || merged.CIHigh != hi {
		t.Fatal("merged CI not recomputed from merged counts")
	}
	// Served on the next request at the grown budget.
	again, fromStore, err := RunMemoryStored(c, model, nil, grow, so)
	if err != nil {
		t.Fatal(err)
	}
	if !fromStore {
		t.Fatal("grown point must now be complete")
	}
	if !reflect.DeepEqual(again, merged) {
		t.Fatalf("served grown point diverges:\n%+v\n%+v", again, merged)
	}
}

// Segment streams must be disjoint from shard streams: segment 1 of seed s
// must not replay shard 1 of the segment-0 run.
func TestSegmentSeedDisjointFromShards(t *testing.T) {
	if SegmentSeed(11, 0) != 11 {
		t.Fatal("segment 0 must be the base seed (byte-identity of resumed tables)")
	}
	for seg := 1; seg < 8; seg++ {
		s := SegmentSeed(11, seg)
		for shard := 0; shard < 4096; shard++ {
			if s == mc.ShardSeed(11, shard) {
				t.Fatalf("segment %d reuses shard %d's stream", seg, shard)
			}
		}
	}
}

// An adaptive request served against a stored early-stopped point must not
// recompute; distinct TargetRSE values hash to distinct points.
func TestRunMemoryStoredAdaptive(t *testing.T) {
	c, model, o, st := storedTestSetup(t)
	o.TargetRSE = 0.3
	o.Shots = 50000
	so := StoreOptions{Store: st, Resume: true, Kind: "test", Config: storedCfg{D: 3, Seed: 11}}
	first, _, err := RunMemoryStored(c, model, nil, o, so)
	if err != nil {
		t.Fatal(err)
	}
	again, fromStore, err := RunMemoryStored(c, model, nil, o, so)
	if err != nil {
		t.Fatal(err)
	}
	if !fromStore {
		t.Fatal("adaptive point met its target; resume must serve it")
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("adaptive replay diverges:\n%+v\n%+v", again, first)
	}
}

// Resuming an incomplete adaptive point must count the stored failures
// toward the target instead of making the engine re-earn it from zero:
// the top-up adds at most a couple of shard-sized chunks, not a whole
// fresh adaptive budget.
func TestRunMemoryStoredAdaptiveTopUpIsCheap(t *testing.T) {
	c, model, o, st := storedTestSetup(t)
	so := StoreOptions{Store: st, Resume: true, Kind: "test", Config: storedCfg{D: 3, Seed: 11}}

	// Seed the store with a fixed 2000-shot segment (rate ~2% at d=3,
	// p=4e-3: RSE just above 0.15), then ask for 0.15 adaptively.
	if _, _, err := RunMemoryStored(c, model, nil, o, so); err != nil {
		t.Fatal(err)
	}
	adapt := o
	adapt.TargetRSE = 0.15
	adapt.Shots = 100000
	merged, fromStore, err := RunMemoryStored(c, model, nil, adapt, so)
	if err != nil {
		t.Fatal(err)
	}
	if merged.RSE > adapt.TargetRSE && merged.Shots < adapt.Shots {
		t.Fatalf("top-up stopped at RSE %.3f > target with budget left", merged.RSE)
	}
	if fromStore {
		t.Fatal("incomplete adaptive point must do work")
	}
	// The estimate-sized chunks may iterate once (the planning inverse is
	// noisy), so allow ~2.5 shards. The bug this pins: an engine run that
	// re-earns the target from zero counts needs ~44 fresh failures at
	// this rate — over 3000 extra shots — instead of crediting the ~30
	// already stored.
	added := merged.Shots - o.Shots
	if added > 5*mc.DefaultShardSize/2 {
		t.Fatalf("adaptive top-up burned %d extra shots; the stored counts should cap it near the missing amount", added)
	}
}

func TestRunMemoryBothStoredRoundTrip(t *testing.T) {
	c, model, o, st := storedTestSetup(t)
	so := StoreOptions{Store: st, Resume: true, Kind: "test-both", Config: storedCfg{D: 3, Seed: 11}}
	z1, x1, comb1, fromStore, err := RunMemoryBothStored(c, model, o, so)
	if err != nil {
		t.Fatal(err)
	}
	if fromStore {
		t.Fatal("first run cannot come from the store")
	}
	// The reference halves: memory-Z at the seed, memory-X at seed+1.
	zo, xo := o, o
	zo.Basis = lattice.ZCheck
	xo.Basis, xo.Seed = lattice.XCheck, o.Seed+1
	bz, err := RunMemoryOpts(c, model, nil, zo)
	if err != nil {
		t.Fatal(err)
	}
	bx, err := RunMemoryOpts(c, model, nil, xo)
	if err != nil {
		t.Fatal(err)
	}
	bcomb := 1 - (1-bz.PerRound)*(1-bx.PerRound)
	if !reflect.DeepEqual(z1, bz) || !reflect.DeepEqual(x1, bx) || comb1 != bcomb {
		t.Fatal("stored both-path diverges from plain per-basis runs")
	}
	z2, x2, comb2, fromStore, err := RunMemoryBothStored(c, model, o, so)
	if err != nil {
		t.Fatal(err)
	}
	if !fromStore {
		t.Fatal("both halves must be served from the store")
	}
	if !reflect.DeepEqual(z2, z1) || !reflect.DeepEqual(x2, x1) || comb2 != comb1 {
		t.Fatal("served both-path diverges from computed run")
	}
}
