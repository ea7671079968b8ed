package deform

import (
	"fmt"

	"surfdeformer/internal/lattice"
)

// Policy selects which defect-removal strategy drives instruction choice.
type Policy int

const (
	// PolicySurfDeformer is the paper's Algorithm 1: DataQRM for interior
	// data defects, SyndromeQRM for interior syndrome defects, PatchQRM
	// with X/Z balancing for boundary defects.
	PolicySurfDeformer Policy = iota
	// PolicyASC reproduces ASC-S: every defect is handled with the
	// super-stabilizer (DataQRM) primitive — a defective syndrome qubit
	// costs its four adjacent data qubits — and boundary cuts always fix Z
	// without balancing (fig. 8a).
	PolicyASC
	// PolicyNoBalance is the ablation of the balancing step: boundary
	// defects are removed without any gauge fixing (the gauge-pair cut).
	PolicyNoBalance
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicySurfDeformer:
		return "surf-deformer"
	case PolicyASC:
		return "asc-s"
	case PolicyNoBalance:
		return "no-balance"
	}
	return "invalid"
}

// ApplyDefects implements the paper's Algorithm 1 (Defect Removal
// Subroutine) at the spec level: each defective physical qubit is
// classified by role (data/syndrome) and position (interior/boundary) and
// the corresponding instruction is recorded. Defects outside the patch or
// already removed are skipped, making repeated application idempotent.
//
// Balancing (the paper's balancing function, fig. 8) is performed for
// boundary data defects under PolicySurfDeformer by evaluating both fix
// choices and keeping the one that maximizes min(dX, dZ), breaking ties
// toward the larger dX+dZ.
func ApplyDefects(s *Spec, defects []lattice.Coord, policy Policy) error {
	for _, q := range defects {
		if !s.Contains(q) {
			continue
		}
		switch {
		case q.IsData():
			if s.RemovedData[q] {
				continue
			}
			if err := applyDataDefect(s, q, policy); err != nil {
				return err
			}
		case q.IsCheck():
			if s.RemovedSyndrome[q] {
				continue
			}
			if err := applySyndromeDefect(s, q, policy); err != nil {
				return err
			}
		default:
			return fmt.Errorf("deform: defect coordinate %v is neither data nor syndrome site", q)
		}
	}
	return nil
}

func applyDataDefect(s *Spec, q lattice.Coord, policy Policy) error {
	if s.IsInterior(q) {
		return s.DataQRM(q)
	}
	switch policy {
	case PolicyASC:
		// ASC-S always converts the Z gauge operator (fig. 8a).
		return s.PatchQRM(q, lattice.ZCheck)
	case PolicyNoBalance:
		s.RemovedData[q] = true // cut without gauge fixing
		return nil
	default:
		return balancedPatchQRM(s, q)
	}
}

func applySyndromeDefect(s *Spec, q lattice.Coord, policy Policy) error {
	if policy == PolicyASC {
		// ASC-S removes the adjacent data qubits with DataQRM even though
		// they are healthy (fig. 7a).
		rect := s.Rect()
		ch, ok := rect.CheckAt(q)
		if !ok {
			return nil // no check lives here; nothing to disable
		}
		for _, dq := range ch.Support {
			if s.RemovedData[dq] {
				continue
			}
			if s.IsInterior(dq) {
				if err := s.DataQRM(dq); err != nil {
					return err
				}
			} else if err := s.PatchQRM(dq, lattice.ZCheck); err != nil {
				return err
			}
		}
		s.RemovedSyndrome[q] = true
		return nil
	}
	// Surf-Deformer: the SyndromeQRM algebra handles interior and boundary
	// syndrome sites uniformly (boundary half-checks yield shorter chains).
	if _, ok := s.Rect().CheckAt(q); !ok {
		return nil // corner positions host no check
	}
	return s.SyndromeQRM(q)
}

// balancedPatchQRM evaluates both boundary-fix choices by their memoized
// distances (Spec.Distances) and records the one with the better balanced
// distance profile.
func balancedPatchQRM(s *Spec, q lattice.Coord) error {
	type option struct {
		fix  lattice.CheckType
		dMin int
		dSum int
		ok   bool
	}
	opts := make([]option, 0, 2)
	for _, fix := range []lattice.CheckType{lattice.XCheck, lattice.ZCheck} {
		trial := s.Clone()
		if err := trial.PatchQRM(q, fix); err != nil {
			return err
		}
		dx, dz, err := trial.Distances()
		if err != nil {
			opts = append(opts, option{fix: fix, ok: false})
			continue
		}
		dMin, dSum := dx, dx+dz
		if dz < dMin {
			dMin = dz
		}
		opts = append(opts, option{fix: fix, dMin: dMin, dSum: dSum, ok: true})
	}
	best := -1
	for i, o := range opts {
		if !o.ok {
			continue
		}
		if best < 0 || o.dMin > opts[best].dMin ||
			(o.dMin == opts[best].dMin && o.dSum > opts[best].dSum) {
			best = i
		}
	}
	if best < 0 {
		// Both gauge-fixing choices break the patch under this (dense)
		// defect pattern; fall back to the plain gauge-pair cut, which
		// keeps the most information. The subsequent Build decides whether
		// the patch survives at all.
		s.RemovedData[q] = true
		return nil
	}
	return s.PatchQRM(q, opts[best].fix)
}
