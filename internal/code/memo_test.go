package code_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/pauli"
)

// memo is the values a Code memoizes per code state.
type memo struct {
	data   []lattice.Coord
	fp     string
	dx, dz int
}

func readMemo(c *code.Code) memo {
	return memo{c.DataQubits(), c.Fingerprint(), c.DistanceX(), c.DistanceZ()}
}

func (m memo) equal(o memo) bool {
	return slices.Equal(m.data, o.data) && m.fp == o.fp && m.dx == o.dx && m.dz == o.dz
}

type namedCode struct {
	name string
	c    *code.Code
}

// memoCodes returns the codes the memo tests run on: a fresh d=3 patch and
// a d=3 patch with one bandage applied (super-stabilizers and demoted
// gauges), built anew on every call.
func memoCodes(t *testing.T) []namedCode {
	t.Helper()
	fresh := func() *code.Code {
		return code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, 3))
	}
	bandaged := fresh()
	for _, q := range bandaged.DataQubits() {
		if _, err := deform.BandageQubit(bandaged, q); err == nil {
			return []namedCode{{"d3", fresh()}, {"bandaged", bandaged}}
		}
	}
	t.Fatal("no data qubit of the d=3 patch accepts a bandage")
	return nil
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func mustTrue(t *testing.T, ok bool) {
	t.Helper()
	if !ok {
		t.Fatal("mutator found nothing to change")
	}
}

// TestCodeMemoClearedByEveryMutation fills the memo, applies one mutation
// and requires the memoized values to equal those of a fresh Clone, whose
// memo starts empty. Every case changes the fingerprint, which every DEM
// cache keys on, so a mutation path that forgot to clear the memo fails
// here; the data-qubit cases change the memoized data list too.
func TestCodeMemoClearedByEveryMutation(t *testing.T) {
	far := lattice.Coord{Row: 100, Col: 100}
	// Each case prepares c where its mutation needs it and returns the
	// mutation; the memo is filled between the two.
	cases := []struct {
		name  string
		stage func(t *testing.T, c *code.Code) func()
	}{
		{"SetLogicalX", func(t *testing.T, c *code.Code) func() {
			return func() { c.SetLogicalX(pauli.X(c.DataQubits()[0])) }
		}},
		{"SetLogicalZ", func(t *testing.T, c *code.Code) func() {
			return func() { c.SetLogicalZ(pauli.Z(c.DataQubits()[0])) }
		}},
		{"AddStab", func(t *testing.T, c *code.Code) func() {
			return func() { c.AddStab(pauli.Z(c.DataQubits()[0]), far) }
		}},
		{"AddDirectStab", func(t *testing.T, c *code.Code) func() {
			return func() { c.AddDirectStab(pauli.X(c.DataQubits()[0])) }
		}},
		{"AddSuperStab", func(t *testing.T, c *code.Code) func() {
			qs := c.DataQubits()
			return func() { c.AddSuperStab(pauli.Z(qs[0], qs[1]), []int{-1}) }
		}},
		{"AddGauge", func(t *testing.T, c *code.Code) func() {
			q := c.DataQubits()[0]
			return func() { c.AddGauge(pauli.X(q), q, true) }
		}},
		{"RemoveStab", func(t *testing.T, c *code.Code) func() {
			return func() { mustTrue(t, c.RemoveStab(c.Stabs()[0].ID)) }
		}},
		{"RemoveGauge", func(t *testing.T, c *code.Code) func() {
			// The staged super-stabilizer depends on the gauge, so the
			// removal drops it too.
			q := c.DataQubits()[0]
			id := c.AddGauge(pauli.Z(q), q, true)
			c.AddSuperStab(pauli.Z(q), []int{id})
			return func() { mustTrue(t, c.RemoveGauge(id)) }
		}},
		{"ReplaceStabOp", func(t *testing.T, c *code.Code) func() {
			s := c.Stabs()[0]
			return func() { mustTrue(t, c.ReplaceStabOp(s.ID, pauli.Z(s.Op.Support()[0]))) }
		}},
		{"ReplaceGaugeOp", func(t *testing.T, c *code.Code) func() {
			qs := c.DataQubits()
			id := c.AddGauge(pauli.X(qs[0]), qs[0], true)
			return func() { mustTrue(t, c.ReplaceGaugeOp(id, pauli.X(qs[1]))) }
		}},
		{"AddDataQubit", func(t *testing.T, c *code.Code) func() {
			return func() { must(t, c.AddDataQubit(far)) }
		}},
		{"RemoveDataQubit", func(t *testing.T, c *code.Code) func() {
			must(t, c.AddDataQubit(far))
			return func() { must(t, c.RemoveDataQubit(far)) }
		}},
		{"AddSyndromeQubit", func(t *testing.T, c *code.Code) func() {
			return func() { must(t, c.AddSyndromeQubit(far)) }
		}},
		{"RemoveSyndromeQubit", func(t *testing.T, c *code.Code) func() {
			must(t, c.AddSyndromeQubit(far))
			return func() { must(t, c.RemoveSyndromeQubit(far)) }
		}},
		{"RefreshLogicals", func(t *testing.T, c *code.Code) func() {
			// A non-minimal representative, which the refresh replaces.
			for _, s := range c.Stabs() {
				if typ, ok := s.Op.CSSType(); ok && typ == lattice.XCheck && !s.IsSuper() {
					c.SetLogicalX(pauli.Mul(c.LogicalX(), s.Op))
					break
				}
			}
			return func() { must(t, c.RefreshLogicals()) }
		}},
		{"ReplaceWith", func(t *testing.T, c *code.Code) func() {
			w := c.Clone()
			mustTrue(t, w.RemoveStab(w.Stabs()[0].ID))
			return func() { c.ReplaceWith(w) }
		}},
	}
	distChanged, dataChanged := 0, 0
	for _, tc := range cases {
		for _, nc := range memoCodes(t) {
			c := nc.c
			t.Run(tc.name+"/"+nc.name, func(t *testing.T) {
				mutate := tc.stage(t, c)
				before := readMemo(c)
				mutate()
				if tc.name == "RefreshLogicals" {
					// The refresh's last walk had DistanceZ's inputs, so it
					// leaves that distance memoized, and it changes no data
					// qubit, so it keeps their list: the reads below are
					// served from the memo, and must equal a fresh clone's.
					if n := mallocs(func() { c.DistanceZ() }); n != 0 {
						t.Errorf("DistanceZ after RefreshLogicals searched afresh (%d allocs), want the memoized value", n)
					}
					if n := mallocs(func() { c.DataQubits() }); n != 0 {
						t.Errorf("DataQubits after RefreshLogicals listed afresh (%d allocs), want the memoized list", n)
					}
				}
				after, want := readMemo(c), readMemo(c.Clone())
				if !after.equal(want) {
					t.Errorf("memo after %s = {data %v dX %d dZ %d fp %q}, fresh clone has {data %v dX %d dZ %d fp %q}",
						tc.name, after.data, after.dx, after.dz, after.fp, want.data, want.dx, want.dz, want.fp)
				}
				if want.fp == before.fp {
					t.Errorf("%s left the fingerprint unchanged; the case does not exercise the memo", tc.name)
				}
				if want.dx != before.dx || want.dz != before.dz {
					distChanged++
				}
				if !slices.Equal(want.data, before.data) {
					dataChanged++
				}
			})
		}
	}
	if distChanged == 0 {
		t.Error("no mutation changed a distance; the distance memo is not exercised")
	}
	if dataChanged == 0 {
		t.Error("no mutation changed the data qubits; the data-list memo is not exercised")
	}
}

// mallocs counts the heap allocations of one call of f, without the
// warm-up call testing.AllocsPerRun makes, which would fill a memo first.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestCodeMemoConcurrentReads reads the memo of one shared code from 8
// goroutines at once, starting from an empty memo, while each goroutine
// also reads the memo of a private clone; run under -race it pins that
// concurrent first reads are race-free, and every goroutine must see the
// values of a fresh clone.
func TestCodeMemoConcurrentReads(t *testing.T) {
	for _, nc := range memoCodes(t) {
		c := nc.c
		got := make([]memo, 8)
		clones := make([]memo, len(got))
		var wg sync.WaitGroup
		for g := range got {
			clone := c.Clone()
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = readMemo(c)
				clones[g] = readMemo(clone)
			}()
		}
		wg.Wait()
		want := readMemo(c.Clone())
		for g := range got {
			for _, m := range []memo{got[g], clones[g]} {
				if !m.equal(want) {
					t.Errorf("%s: goroutine %d read {dX %d dZ %d}, want {dX %d dZ %d} (fingerprints equal: %v)",
						nc.name, g, m.dx, m.dz, want.dx, want.dz, m.fp == want.fp)
				}
			}
		}
	}
}

// TestCodeMemoZeroAllocs pins that a filled memo is served without
// allocating: every DEM-cache lookup reads the fingerprint, the trajectory
// engine reads both distances on every chunk, and every compile, distance
// search and DEM build reads the sorted data list.
func TestCodeMemoZeroAllocs(t *testing.T) {
	for _, nc := range memoCodes(t) {
		c := nc.c
		readMemo(c)
		if n := testing.AllocsPerRun(1000, func() { readMemo(c) }); n != 0 {
			t.Errorf("%s: memo read allocates %v per op", nc.name, n)
		}
	}
}
