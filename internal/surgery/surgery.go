// Package surgery implements the lattice-surgery primitives that form the
// baseline surface-code instruction set the paper extends (§II-D, fig. 4):
// growing patches, merging two patches through the ancilla region between
// them, and splitting a merged patch back apart.
//
// A merge along the Z boundaries of two horizontally adjacent patches
// measures the joint Z⊗Z logical operator: the combined system is a single
// wide patch (one logical qubit), which is exactly how the deform.Spec
// machinery represents it — the merged spec spans both patches plus the
// ancilla strip, and any defect removals recorded in either operand carry
// over. Splitting restores two independent specs.
//
// Defective sites inside the ancilla strip obstruct the merge; MergeBlocked
// reports the obstruction, which is the code-level mechanism behind the
// channel-blocking studied in fig. 10/11c.
package surgery

import (
	"fmt"

	"surfdeformer/internal/deform"
	"surfdeformer/internal/lattice"
)

// Merge fuses two horizontally adjacent patches (a left of b) into one
// spec spanning both and the strip between them. The patches must agree on
// vertical extent and be separated by at least one data column.
func Merge(a, b *deform.Spec) (*deform.Spec, error) {
	if a.Origin.Row != b.Origin.Row || a.DZ != b.DZ {
		return nil, fmt.Errorf("surgery: patches are not horizontally aligned (rows %d/%d, dz %d/%d)",
			a.Origin.Row, b.Origin.Row, a.DZ, b.DZ)
	}
	aMin, aMax := a.Bounds()
	bMin, _ := b.Bounds()
	if bMin.Col <= aMax.Col {
		return nil, fmt.Errorf("surgery: patches overlap or touch (right edge %d, left edge %d)",
			aMax.Col, bMin.Col)
	}
	gapCols := (bMin.Col - aMax.Col) / 2 // data columns in the ancilla strip
	if gapCols < 1 {
		return nil, fmt.Errorf("surgery: no ancilla strip between patches")
	}
	merged := deform.NewSpec(aMin, a.DX+gapCols+b.DX, a.DZ)
	for q := range a.RemovedData {
		merged.RemovedData[q] = true
	}
	for q := range b.RemovedData {
		merged.RemovedData[q] = true
	}
	for q := range a.RemovedSyndrome {
		merged.RemovedSyndrome[q] = true
	}
	for q := range b.RemovedSyndrome {
		merged.RemovedSyndrome[q] = true
	}
	for q, t := range a.Fixes {
		if !merged.IsInterior(q) {
			merged.Fixes[q] = t
		}
	}
	for q, t := range b.Fixes {
		if !merged.IsInterior(q) {
			merged.Fixes[q] = t
		}
	}
	return merged, nil
}

// Split cuts a merged spec back into two patches at the given data-column
// count for the left part, dropping splitCols data columns between them
// (the measured-out ancilla strip). Removed sites are partitioned; sites in
// the dropped strip vanish with it.
func Split(m *deform.Spec, leftDX, splitCols int) (*deform.Spec, *deform.Spec, error) {
	if leftDX < 1 || splitCols < 1 || leftDX+splitCols >= m.DX {
		return nil, nil, fmt.Errorf("surgery: invalid split (leftDX=%d, splitCols=%d of DX=%d)",
			leftDX, splitCols, m.DX)
	}
	left := deform.NewSpec(m.Origin, leftDX, m.DZ)
	rightOrigin := lattice.Coord{Row: m.Origin.Row, Col: m.Origin.Col + 2*(leftDX+splitCols)}
	right := deform.NewSpec(rightOrigin, m.DX-leftDX-splitCols, m.DZ)
	assign := func(q lattice.Coord, isSyndrome bool) {
		switch {
		case left.Contains(q) && q.Col < m.Origin.Col+2*leftDX+1:
			if isSyndrome {
				left.RemovedSyndrome[q] = true
			} else {
				left.RemovedData[q] = true
			}
		case right.Contains(q):
			if isSyndrome {
				right.RemovedSyndrome[q] = true
			} else {
				right.RemovedData[q] = true
			}
		}
	}
	for q := range m.RemovedData {
		assign(q, false)
	}
	for q := range m.RemovedSyndrome {
		assign(q, true)
	}
	for q, t := range m.Fixes {
		if left.RemovedData[q] && !left.IsInterior(q) {
			left.Fixes[q] = t
		}
		if right.RemovedData[q] && !right.IsInterior(q) {
			right.Fixes[q] = t
		}
	}
	return left, right, nil
}

// MergeBlocked reports whether defective sites obstruct the ancilla strip
// between two patches: a merge requires a clean distance-d channel, so any
// unremovable defect cluster wider than the spare space blocks it. The
// check is conservative: it judges the would-be merged spec by its
// distances (deform.Spec.Distances, memoized across calls) and fails if the
// defects sever it or drop its distance below minDistance.
func MergeBlocked(a, b *deform.Spec, defects []lattice.Coord, minDistance int) (bool, error) {
	merged, err := Merge(a, b)
	if err != nil {
		return true, err
	}
	if err := deform.ApplyDefects(merged, defects, deform.PolicySurfDeformer); err != nil {
		return true, nil
	}
	dx, dz, err := merged.Distances()
	if err != nil {
		return true, nil // severed: merge impossible
	}
	return min(dx, dz) < minDistance, nil
}

// GrowTowards extends patch a rightwards until its boundary reaches the
// given column, the grow primitive of the LS instruction set expressed as
// PatchQ_ADD layers.
func GrowTowards(a *deform.Spec, col int) error {
	_, max := a.Bounds()
	if col <= max.Col {
		return fmt.Errorf("surgery: target column %d not beyond patch edge %d", col, max.Col)
	}
	layers := (col - max.Col) / 2
	if layers < 1 {
		return fmt.Errorf("surgery: target column %d too close for a full layer", col)
	}
	return a.PatchQADD(lattice.Right, layers)
}
