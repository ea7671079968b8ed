package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
)

// TestCachedStructureMatchesBuild pins the structure cache's contract: a
// DEM folded from a cached structure equals a fresh BuildDEM value for
// value. On a pristine, a removal-deformed and a bandaged code, with the
// correlated pair on and off, it builds four models of one structure key
// through a fresh DEMCache (each model a cache miss) and through
// Patcher.Variant with no base, twice — every build after the key's first
// is a structure hit — and requires each DEM to equal BuildDEM's and the
// forward reference's, to keep a plan exactly when BuildDEM's does, for
// its own model and code, and the plan-keeping DEMs to share one core.
// The second model rates idle faults and the correlated pair only, so its
// fold drops every mechanism neither feeds, and a drop that wrote into the
// shared structure would fail the builds after it.
func TestCachedStructureMatchesBuild(t *testing.T) {
	bandaged, _ := bandagedCode(t, 3)
	hits := obs.Default().Counter("sim.dem.structure_hits")
	for _, tc := range []struct {
		name string
		c    *code.Code
	}{
		{"pristine", freshCode(t, 3)},
		{"removal", deformedCode(t)},
		{"bandaged", bandaged},
	} {
		for _, correlated := range []bool{false, true} {
			nominal := noise.Uniform(2e-3)
			if correlated {
				nominal = nominal.WithCorrelated(4e-4)
			}
			q := tc.c.DataQubits()[0]
			models := []*noise.Model{
				nominal,
				{P1: nominal.P1, PCorrelated: nominal.PCorrelated},
				nominal.WithSiteRates(siteRates(map[lattice.Coord]float64{q: 8e-3})),
				nominal.WithDefects([]lattice.Coord{q}, noise.DefaultDefectRate),
			}
			dc := NewDEMCache(0)
			var pt Patcher
			var core *DEM
			h0 := hits.Value()
			for i, m := range models {
				want, err := BuildDEM(tc.c, m, 4, lattice.ZCheck)
				if err != nil {
					t.Fatal(err)
				}
				if i == 1 && want.plan != nil {
					t.Fatalf("%s: the idle-only model dropped no mechanism", tc.name)
				}
				ref := refDEM(t, tc.c, m, 4, lattice.ZCheck)
				for leg, build := range []func() (*DEM, error){
					func() (*DEM, error) { return dc.BuildDEM(tc.c, m, 4, lattice.ZCheck) },
					func() (*DEM, error) { return pt.Variant(nil, tc.c, m, 4, lattice.ZCheck) },
					func() (*DEM, error) { return pt.Variant(nil, tc.c, m, 4, lattice.ZCheck) },
				} {
					ctx := fmt.Sprintf("%s correlated=%v model %d leg %d", tc.name, correlated, i, leg)
					got, err := build()
					if err != nil {
						t.Fatal(err)
					}
					demValuesEqual(t, got, want, ctx)
					demValuesEqual(t, got, ref, ctx+"/ref")
					if (got.plan != nil) != (want.plan != nil) {
						t.Fatalf("%s: plan kept %v, BuildDEM's %v", ctx, got.plan != nil, want.plan != nil)
					}
					if got.plan == nil {
						continue
					}
					if got.plan.base != m || got.plan.code != tc.c.Fingerprint() {
						t.Fatalf("%s: plan kept for another model or code", ctx)
					}
					if core == nil {
						core = got
					} else if !SamePatchCore(got, core) {
						t.Fatalf("%s: a build of a cached structure key does not share its core", ctx)
					}
				}
			}
			if want := int64(3*len(models) - 1); hits.Value()-h0 < want {
				t.Errorf("%s correlated=%v: %d structure hits, want at least %d", tc.name, correlated, hits.Value()-h0, want)
			}
		}
	}
}

// TestStructureCacheBound drives a small structure cache through a random
// sequence of lookups over 24 keys of one code, the bound holding three to
// four structures, and compares it after every lookup with a model of the
// least-recently-used rule: the same keys held in the same order, the
// counted bytes the sum of the held structures' and never above the bound.
// A hit returns the held structure itself; a structure larger than the
// whole bound is returned without being cached.
func TestStructureCacheBound(t *testing.T) {
	c := freshCode(t, 3)
	probe, err := enumerate(c, 5, lattice.ZCheck, false)
	if err != nil {
		t.Fatal(err)
	}
	limit := 3 * structBytes(structKey{code: c.Fingerprint(), rounds: 5, basis: lattice.ZCheck}, probe)
	sc := newStructCache(limit)
	var keys []structKey
	for rounds := 2; rounds <= 7; rounds++ {
		for _, basis := range []lattice.CheckType{lattice.ZCheck, lattice.XCheck} {
			for _, correlated := range []bool{false, true} {
				keys = append(keys, structKey{code: c.Fingerprint(), rounds: rounds, basis: basis, correlated: correlated})
			}
		}
	}
	var order []structKey // the model: most recently used first
	held := map[structKey]*DEM{}
	size := map[structKey]int{}
	evicted := 0
	rng := rand.New(rand.NewSource(5))
	for step := range 400 {
		k := keys[rng.Intn(len(keys))]
		st, err := sc.get(c, k.rounds, k.basis, k.correlated)
		if err != nil {
			t.Fatal(err)
		}
		if old, ok := held[k]; ok {
			if st != old {
				t.Fatalf("step %d: a hit on %v returned another structure", step, k)
			}
			order = slices.DeleteFunc(order, func(o structKey) bool { return o == k })
		} else {
			held[k], size[k] = st, structBytes(k, st)
			total := size[k]
			for _, o := range order {
				total += size[o]
			}
			for total > limit {
				last := order[len(order)-1]
				order, total = order[:len(order)-1], total-size[last]
				delete(held, last)
				evicted++
			}
		}
		order = append([]structKey{k}, order...)
		var got []structKey
		counted := 0
		for el := sc.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*structEntry)
			got = append(got, e.key)
			counted += e.bytes
		}
		if !slices.Equal(got, order) || len(sc.entries) != len(order) {
			t.Fatalf("step %d: cache holds %d keys (%d indexed), model %d, or in another order", step, len(got), len(sc.entries), len(order))
		}
		if sc.bytes != counted || sc.bytes > limit {
			t.Fatalf("step %d: cache counts %d bytes, its structures %d, bound %d", step, sc.bytes, counted, limit)
		}
	}
	if evicted == 0 {
		t.Fatal("no lookup evicted a structure; the bound is not exercised")
	}

	tiny := newStructCache(limit / 8)
	a, err := tiny.get(c, 5, lattice.ZCheck, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tiny.get(c, 5, lattice.ZCheck, false)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || tiny.bytes != 0 || len(tiny.entries) != 0 {
		t.Errorf("a structure over the whole bound was cached: same structure twice %v, %d bytes, %d entries", a == b, tiny.bytes, len(tiny.entries))
	}
}

// TestStructureCacheConcurrent folds DEMs through one small structure
// cache from 8 goroutines at once, over 8 keys of which the bound holds
// about three, so lookups, enumerations and evictions interleave: every
// DEM must equal BuildDEM's, and afterwards the cache must count exactly
// the bytes of the structures it holds, within its bound. Run it with
// -race.
func TestStructureCacheConcurrent(t *testing.T) {
	c := freshCode(t, 3)
	model := noise.Uniform(2e-3)
	type key struct {
		rounds int
		basis  lattice.CheckType
	}
	var keys []key
	want := map[key]*DEM{}
	for rounds := 2; rounds <= 5; rounds++ {
		for _, basis := range []lattice.CheckType{lattice.ZCheck, lattice.XCheck} {
			k := key{rounds, basis}
			dem, err := BuildDEM(c, model, rounds, basis)
			if err != nil {
				t.Fatal(err)
			}
			keys, want[k] = append(keys, k), dem
		}
	}
	probe, err := enumerate(c, 5, lattice.ZCheck, false)
	if err != nil {
		t.Fatal(err)
	}
	sc := newStructCache(3 * structBytes(structKey{code: c.Fingerprint(), rounds: 5, basis: lattice.ZCheck}, probe))
	type result struct {
		k   key
		dem *DEM
		err error
	}
	got := make([][]result, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for range 40 {
				k := keys[rng.Intn(len(keys))]
				dem, err := buildModel(c, model, k.rounds, k.basis, sc.get)
				got[g] = append(got[g], result{k, dem, err})
			}
		}()
	}
	wg.Wait()
	for g, rs := range got {
		for i, r := range rs {
			if r.err != nil {
				t.Fatal(r.err)
			}
			demValuesEqual(t, r.dem, want[r.k], fmt.Sprintf("goroutine %d lookup %d (rounds %d, %v)", g, i, r.k.rounds, r.k.basis))
		}
	}
	counted := 0
	for el := sc.lru.Front(); el != nil; el = el.Next() {
		counted += el.Value.(*structEntry).bytes
	}
	if sc.bytes != counted || sc.bytes > sc.limit || len(sc.entries) != sc.lru.Len() {
		t.Errorf("cache counts %d bytes over %d keys (%d indexed), its structures %d, bound %d",
			sc.bytes, sc.lru.Len(), len(sc.entries), counted, sc.limit)
	}
}
