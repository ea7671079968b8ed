package code

import (
	"fmt"

	"surfdeformer/internal/gf2"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/pauli"
)

// Logical representative extraction.
//
// After a deformation the stored logical representatives may run through
// removed qubits. The chain graph (see distance.go) yields a shortest
// boundary-to-boundary odd-crossing walk whose edges are data qubits; the
// corresponding Pauli string commutes with every opposite-type stabilizer
// by construction and anti-commutes with the crossing logical. It may still
// anti-commute with some gauge operators, in which case it is a dressed
// logical; RepairLogical lifts it to a bare logical by multiplying with
// gauge operators found through GF(2) solving.

// LogicalRep computes a minimum-weight logical representative of the given
// type from the chain graph. The result commutes with all opposite-type
// stabilizers and anti-commutes with the stored opposite logical; callers
// should pass it through RepairLogical before installing it when gauge
// operators are present.
func (c *Code) LogicalRep(logicalType lattice.CheckType) (pauli.Op, error) {
	qubits, err := c.shortestLogicalPath(logicalType)
	if err != nil {
		return pauli.Op{}, err
	}
	if logicalType == lattice.ZCheck {
		return pauli.Z(qubits...), nil
	}
	return pauli.X(qubits...), nil
}

// RepairLogical multiplies op by gauge operators so the result commutes with
// every gauge operator, turning a dressed logical into a bare one. It
// returns an error when no gauge combination fixes the anti-commutations
// (which would mean op is not a logical of this code at all).
func (c *Code) RepairLogical(op pauli.Op) (pauli.Op, error) {
	var bad []int
	for i, g := range c.gauges {
		if !op.Commutes(g.Op) {
			bad = append(bad, i)
		}
	}
	if len(bad) == 0 {
		return op, nil
	}
	// Solve Gramᵀ·x = pattern over GF(2): x selects gauge generators whose
	// product flips exactly the anti-commuting entries. Gram is symmetric.
	n := len(c.gauges)
	gram := gf2.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !c.gauges[i].Op.Commutes(c.gauges[j].Op) {
				gram.Set(i, j, true)
			}
		}
	}
	pattern := gf2.NewVec(n)
	for _, i := range bad {
		pattern.Set(i, true)
	}
	combo, ok := gram.Solve(pattern)
	if !ok {
		return pauli.Op{}, fmt.Errorf("code: operator cannot be repaired into a bare logical")
	}
	out := op
	for i := 0; i < n; i++ {
		if combo.Get(i) {
			out = pauli.Mul(out, c.gauges[i].Op)
		}
	}
	for _, g := range c.gauges {
		if !out.Commutes(g.Op) {
			return pauli.Op{}, fmt.Errorf("code: logical repair failed to commute with gauge %d", g.ID)
		}
	}
	return out, nil
}

// AlgebraicLogical derives a bare logical representative of the given type
// purely from linear algebra, without any crossing operator: it searches the
// nullspace of the opposite-type measured operators for a vector outside the
// span of the same-type measured operators. The result is valid but not
// necessarily minimum weight; it seeds the graph-based refinement.
func (c *Code) AlgebraicLogical(logicalType lattice.CheckType) (pauli.Op, error) {
	qubits := c.DataQubits()
	idx := make(map[lattice.Coord]int, len(qubits))
	for i, q := range qubits {
		idx[q] = i
	}
	n := len(qubits)
	supportVec := func(op pauli.Op) gf2.Vec {
		v := gf2.NewVec(n)
		for _, q := range op.Support() {
			if i, ok := idx[q]; ok {
				v.Set(i, true)
			}
		}
		return v
	}
	opposite := gf2.NewMatrix(0, n)
	same := gf2.NewMatrix(0, n)
	collect := func(op pauli.Op) {
		t, ok := op.CSSType()
		if !ok || op.IsIdentity() {
			return
		}
		if t == logicalType {
			same.AppendRow(supportVec(op))
		} else {
			opposite.AppendRow(supportVec(op))
		}
	}
	for _, s := range c.stabs {
		collect(s.Op)
	}
	for _, g := range c.gauges {
		collect(g.Op)
	}
	for _, v := range opposite.Nullspace() {
		if same.InSpan(v) {
			continue
		}
		var coords []lattice.Coord
		for _, i := range v.Indices() {
			coords = append(coords, qubits[i])
		}
		if logicalType == lattice.ZCheck {
			return pauli.Z(coords...), nil
		}
		return pauli.X(coords...), nil
	}
	return pauli.Op{}, fmt.Errorf("code: no %v logical class exists (k = 0?)", logicalType)
}

// RefreshLogicals recomputes both logical representatives from the current
// stabilizer and gauge structure and installs them. Crossing parities in
// the chain graph are classified against the opposite representative, so
// the refresh first seeds a guaranteed-valid bare logical Z algebraically,
// then minimizes X against it and finally re-minimizes Z against the
// minimal X.
func (c *Code) RefreshLogicals() error {
	// The logicals are written directly below; clear the memo whatever the
	// outcome, since a failed refresh may leave them partly replaced.
	defer c.invalidate()
	seed, err := c.AlgebraicLogical(lattice.ZCheck)
	if err != nil {
		return err
	}
	c.logicalZ = seed
	refresh := func(typ lattice.CheckType) error {
		rep, err := c.LogicalRep(typ)
		if err != nil {
			return err
		}
		rep, err = c.RepairLogical(rep)
		if err != nil {
			return fmt.Errorf("code: logical %v: %w", typ, err)
		}
		if typ == lattice.ZCheck {
			c.logicalZ = rep
		} else {
			c.logicalX = rep
		}
		return nil
	}
	if err := refresh(lattice.XCheck); err != nil {
		return err
	}
	if err := refresh(lattice.ZCheck); err != nil {
		return err
	}
	if c.logicalX.Commutes(c.logicalZ) {
		return fmt.Errorf("code: refreshed logicals commute; patch topology broken")
	}
	return nil
}
