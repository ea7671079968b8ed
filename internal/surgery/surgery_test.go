package surgery

import (
	"math/rand"
	"testing"

	"surfdeformer/internal/deform"
	"surfdeformer/internal/lattice"
)

func co(r, c int) lattice.Coord { return lattice.Coord{Row: r, Col: c} }

func TestMergeTwoPatches(t *testing.T) {
	// Two d=5 patches separated by a 5-column channel (the paper's
	// d-spaced layout).
	a := deform.NewSquareSpec(co(0, 0), 5)
	b := deform.NewSquareSpec(co(0, 20), 5)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.DX != 5+5+5 || m.DZ != 5 {
		t.Fatalf("merged spec %dx%d, want 15x5", m.DX, m.DZ)
	}
	c, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("merged code invalid: %v", err)
	}
	// The merged patch encodes one logical qubit with Z distance 15
	// (widened) and X distance 5.
	if got := c.DistanceZ(); got != 15 {
		t.Errorf("merged DistanceZ = %d, want 15", got)
	}
	if got := c.DistanceX(); got != 5 {
		t.Errorf("merged DistanceX = %d, want 5", got)
	}
}

func TestMergeCarriesDeformations(t *testing.T) {
	a := deform.NewSquareSpec(co(0, 0), 5)
	if err := a.DataQRM(co(5, 5)); err != nil {
		t.Fatal(err)
	}
	b := deform.NewSquareSpec(co(0, 20), 5)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !m.RemovedData[co(5, 5)] {
		t.Error("merge lost the removal record")
	}
	c, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("merged deformed code invalid: %v", err)
	}
	if c.Distance() >= 5 && len(c.Gauges()) == 0 {
		t.Error("carried-over removal should leave gauge structure")
	}
}

func TestMergeRejectsMisaligned(t *testing.T) {
	a := deform.NewSquareSpec(co(0, 0), 5)
	if _, err := Merge(a, deform.NewSquareSpec(co(2, 20), 5)); err == nil {
		t.Error("row-misaligned merge must fail")
	}
	if _, err := Merge(a, deform.NewSquareSpec(co(0, 20), 3)); err == nil {
		t.Error("height-mismatched merge must fail")
	}
	if _, err := Merge(a, deform.NewSquareSpec(co(0, 10), 5)); err == nil {
		t.Error("touching patches leave no ancilla strip; merge must fail")
	}
}

func TestSplitRoundTrip(t *testing.T) {
	a := deform.NewSquareSpec(co(0, 0), 5)
	b := deform.NewSquareSpec(co(0, 20), 5)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	left, right, err := Split(m, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if left.DX != 5 || right.DX != 5 {
		t.Fatalf("split widths %d/%d, want 5/5", left.DX, right.DX)
	}
	if right.Origin != co(0, 20) {
		t.Errorf("right origin %v, want (0,20)", right.Origin)
	}
	for _, s := range []*deform.Spec{left, right} {
		c, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		if c.Distance() != 5 {
			t.Errorf("split patch distance %d, want 5", c.Distance())
		}
	}
}

func TestSplitPartitionsRemovals(t *testing.T) {
	a := deform.NewSquareSpec(co(0, 0), 5)
	b := deform.NewSquareSpec(co(0, 20), 5)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DataQRM(co(5, 5)); err != nil { // left half
		t.Fatal(err)
	}
	if err := m.DataQRM(co(5, 25)); err != nil { // right half
		t.Fatal(err)
	}
	if err := m.DataQRM(co(5, 15)); err != nil { // ancilla strip: vanishes
		t.Fatal(err)
	}
	left, right, err := Split(m, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !left.RemovedData[co(5, 5)] || left.RemovedData[co(5, 25)] {
		t.Error("left split carries the wrong removals")
	}
	if !right.RemovedData[co(5, 25)] || right.RemovedData[co(5, 5)] {
		t.Error("right split carries the wrong removals")
	}
	if left.RemovedData[co(5, 15)] || right.RemovedData[co(5, 15)] {
		t.Error("strip removal must vanish with the strip")
	}
}

func TestSplitRejectsBadGeometry(t *testing.T) {
	m := deform.NewSpec(co(0, 0), 15, 5)
	if _, _, err := Split(m, 0, 5); err == nil {
		t.Error("empty left split must fail")
	}
	if _, _, err := Split(m, 10, 5); err == nil {
		t.Error("split leaving no right patch must fail")
	}
}

func TestMergeBlockedByDefects(t *testing.T) {
	a := deform.NewSquareSpec(co(0, 0), 5)
	b := deform.NewSquareSpec(co(0, 20), 5)
	// A clean channel merges fine.
	blocked, err := MergeBlocked(a, b, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if blocked {
		t.Error("clean channel should not block")
	}
	// A defect column across the strip severs the merged patch.
	var wall []lattice.Coord
	for r := 1; r <= 9; r += 2 {
		wall = append(wall, co(r, 15))
	}
	blocked, err = MergeBlocked(a, b, wall, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !blocked {
		t.Error("a defect wall across the channel must block the merge")
	}
}

func TestGrowTowards(t *testing.T) {
	a := deform.NewSquareSpec(co(0, 0), 5)
	if err := GrowTowards(a, 16); err != nil {
		t.Fatal(err)
	}
	if a.DX != 8 {
		t.Errorf("grown DX = %d, want 8", a.DX)
	}
	if err := GrowTowards(a, 2); err == nil {
		t.Error("growing backwards must fail")
	}
}

// TestMergeCarriesBothSides merges two patches that each carry live
// deformations and checks the merged code is valid with both removal
// records intact — the situation a layout trajectory is in when a surgery
// op lands on patches mid-mitigation.
func TestMergeCarriesBothSides(t *testing.T) {
	a := deform.NewSquareSpec(co(0, 0), 5)
	if err := a.DataQRM(co(3, 5)); err != nil {
		t.Fatal(err)
	}
	b := deform.NewSquareSpec(co(0, 20), 5)
	if err := b.DataQRM(co(7, 25)); err != nil {
		t.Fatal(err)
	}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !m.RemovedData[co(3, 5)] || !m.RemovedData[co(7, 25)] {
		t.Fatal("merge dropped a removal record")
	}
	c, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("merged doubly-deformed code invalid: %v", err)
	}
	if len(c.Gauges()) == 0 {
		t.Error("removals on both sides should leave gauge structure")
	}
	if c.DistanceX() > 5 || c.DistanceZ() > 15 {
		t.Errorf("merged distances %d/%d exceed the defect-free %d/%d",
			c.DistanceX(), c.DistanceZ(), 5, 15)
	}
}

// TestSplitWithActiveDeformations splits a merged patch while both halves
// carry deformations: each half must build into a valid code with its own
// removals, and the defective halves keep their degraded distance.
func TestSplitWithActiveDeformations(t *testing.T) {
	a := deform.NewSquareSpec(co(0, 0), 5)
	b := deform.NewSquareSpec(co(0, 20), 5)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Left half takes a two-site cluster, right half a single site.
	for _, q := range []lattice.Coord{co(3, 5), co(5, 5), co(5, 25)} {
		if err := m.DataQRM(q); err != nil {
			t.Fatal(err)
		}
	}
	left, right, err := Split(m, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := left.Build()
	if err != nil {
		t.Fatal(err)
	}
	cr, err := right.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []interface{ Validate() error }{cl, cr} {
		if err := c.Validate(); err != nil {
			t.Fatalf("split deformed code invalid: %v", err)
		}
	}
	if cl.Distance() >= 5 {
		t.Errorf("left split distance %d not degraded by its two-site cluster", cl.Distance())
	}
	if len(cr.Gauges()) == 0 {
		t.Error("right split lost its deformation's gauge structure")
	}
}

// TestMergeBlockedGrowRetry walks the defect-adaptive surgery sequence of
// the layout engine: a channel cluster blocks the merge at the
// full-distance demand, the left patch grows across the clean part of the
// channel (shortening the strip for the replan), and the retry at the
// degraded distance tolerance succeeds — the merged code carries the
// cluster as deformations and keeps the relaxed distance.
func TestMergeBlockedGrowRetry(t *testing.T) {
	a := deform.NewSquareSpec(co(0, 0), 5)
	b := deform.NewSquareSpec(co(0, 20), 5)
	cluster := []lattice.Coord{co(1, 15), co(5, 15)}
	blocked, err := MergeBlocked(a, b, cluster, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !blocked {
		t.Fatal("channel cluster should block a full-distance merge")
	}
	if err := GrowTowards(a, 14); err != nil {
		t.Fatal(err)
	}
	if a.DX != 7 {
		t.Fatalf("grown DX = %d, want 7", a.DX)
	}
	blocked, err = MergeBlocked(a, b, cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	if blocked {
		t.Error("retry after growth must succeed at the degraded distance tolerance")
	}
	// Execute the replanned merge and check the resulting code.
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := deform.ApplyDefects(m, cluster, deform.PolicySurfDeformer); err != nil {
		t.Fatal(err)
	}
	for _, q := range cluster {
		if !m.RemovedData[q] {
			t.Errorf("merge dropped the cluster removal at %v", q)
		}
	}
	c, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("replanned merged code invalid: %v", err)
	}
	if c.Distance() < 4 {
		t.Errorf("merged distance %d below the relaxed tolerance 4", c.Distance())
	}
}

// TestMergeBlockedMatchesFromScratch pins MergeBlocked, which judges the
// merged spec by its memoized distances, to a from-scratch compile: on
// random strip defects its verdict must equal Merge + ApplyDefects +
// Build().Distance(), on the first call and on a repeat served by the memo.
func TestMergeBlockedMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := deform.NewSquareSpec(co(0, 0), 3)
	b := deform.NewSquareSpec(co(0, 12), 3)
	_, aMax := a.Bounds()
	bMin, _ := b.Bounds()
	const trials = 40
	blocked := 0
	for trial := 0; trial < trials; trial++ {
		var strip []lattice.Coord
		for n := 1 + rng.Intn(4); len(strip) < n; {
			q := co(rng.Intn(aMax.Row+1), aMax.Col+1+rng.Intn(bMin.Col-aMax.Col-1))
			if q.IsData() || q.IsCheck() {
				strip = append(strip, q)
			}
		}
		minDistance := 2 + rng.Intn(2)
		m, err := Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := true
		if deform.ApplyDefects(m, strip, deform.PolicySurfDeformer) == nil {
			if c, err := m.Build(); err == nil {
				want = c.Distance() < minDistance
			}
		}
		if want {
			blocked++
		}
		for pass := 0; pass < 2; pass++ {
			got, err := MergeBlocked(a, b, strip, minDistance)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d pass %d: strip %v at distance %d: blocked %v, from scratch %v",
					trial, pass, strip, minDistance, got, want)
			}
		}
	}
	if blocked == 0 || blocked == trials {
		t.Errorf("%d of %d strips blocked; both verdicts must occur", blocked, trials)
	}
}
