package deform

import (
	"fmt"

	"surfdeformer/internal/code"
	"surfdeformer/internal/gauge"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/pauli"
)

// Bandage super-stabilizers (arXiv 2404.18644): instead of cutting a
// defective data qubit's whole region out of the patch, the checks
// adjacent to the qubit are demoted to gauge operators, the qubit is
// stripped from them, and the merged products are promoted to
// super-stabilizers — a "bandage" over the hole that preserves the patch
// boundary and the logical operators. The construction here is a checked
// composition of the package gauge atomic ops (S2G to demote, G2G to
// strip, promotion guarded by the commutation preconditions), so the
// encoded logical state is preserved by the same theorems that back the
// rest of the calculus.

// demotedCheck records one stabilizer demoted by a bandage: the original
// check operator and ancilla (for Undo), and the ID of the gauge entry
// that carries its q-stripped remnant in the bandaged code.
type demotedCheck struct {
	op      pauli.Op
	ancilla lattice.Coord
	gaugeID int
}

// Bandage records one applied bandage so it can be undone. IDs refer to
// the code the bandage was applied to; undo bandages in reverse
// application order when several overlap.
type Bandage struct {
	// Site is the defective data qubit the bandage isolates.
	Site lattice.Coord
	// SuperIDs are the promoted super-stabilizers (zero, one or two: a
	// merged product is only promoted where it commutes with the rest of
	// the measured set, which excludes boundary corners).
	SuperIDs []int

	demoted        []demotedCheck
	origLX, origLZ pauli.Op
}

// BandageQubit applies the bandage construction to defective data qubit q:
//
//  1. reroute the logical representatives off q (multiplying by an
//     adjacent stabilizer of the same CSS type);
//  2. S2G with X(q) and Z(q): every check on q is demoted to a gauge, and
//     the single-qubit operators enter as direct gauges;
//  3. G2G each demoted gauge with the matching single-qubit operator,
//     stripping q from it;
//  4. promote the merged product of each type's stripped gauges to a
//     super-stabilizer where the product is a valid stabilizer (non-
//     identity and commuting with the whole measured set);
//  5. retire the direct gauges and remove q from the code.
//
// On any failed precondition (a logical that cannot be rerouted, an
// adjacent super-stabilizer from an earlier bandage, a broken invariant)
// the code is left untouched and an error returned. On success c is the
// bandaged code, Validate-clean, and the returned Bandage can Undo it.
func BandageQubit(c *code.Code, q lattice.Coord) (*Bandage, error) {
	if !c.HasData(q) {
		return nil, fmt.Errorf("deform: bandage site %v is not an active data qubit", q)
	}
	work := c.Clone()
	b := &Bandage{Site: q, origLX: c.LogicalX(), origLZ: c.LogicalZ()}

	// (1) Logical representatives must avoid q before S2G will accept the
	// single-qubit operators. Multiplying by a same-type stabilizer on q
	// keeps the representative in the same logical class.
	if err := rerouteLogical(work, q, lattice.XCheck); err != nil {
		return nil, err
	}
	if err := rerouteLogical(work, q, lattice.ZCheck); err != nil {
		return nil, err
	}

	// (2) Demote: X(q) anti-commutes with exactly the Z checks on q,
	// Z(q) with the X checks. S2G rejects the script if any of them is a
	// super-stabilizer (an overlapping earlier bandage) — the caller
	// skips such sites deterministically.
	demZ, xgid, err := gauge.S2G(work, pauli.X(q), q, true)
	if err != nil {
		return nil, fmt.Errorf("deform: bandage %v: %w", q, err)
	}
	demX, zgid, err := gauge.S2G(work, pauli.Z(q), q, true)
	if err != nil {
		return nil, fmt.Errorf("deform: bandage %v: %w", q, err)
	}

	// (3) Strip q from every demoted gauge, recording the original check
	// for Undo first.
	strip := func(ids []int, single pauli.Op) error {
		for _, id := range ids {
			g, ok := work.GaugeByID(id)
			if !ok {
				return fmt.Errorf("deform: bandage %v: lost demoted gauge %d", q, id)
			}
			b.demoted = append(b.demoted, demotedCheck{op: g.Op, ancilla: g.Ancilla, gaugeID: id})
			if err := gauge.G2G(work, id, single); err != nil {
				return fmt.Errorf("deform: bandage %v: %w", q, err)
			}
		}
		return nil
	}
	if err := strip(demZ, pauli.Z(q)); err != nil {
		return nil, err
	}
	if err := strip(demX, pauli.X(q)); err != nil {
		return nil, err
	}

	// (4) Promote each type's merged product where it is a valid
	// stabilizer. At a boundary the stripped set of one type can be a
	// single gauge that still anti-commutes with the other type's
	// stripped gauges — promoting it would break the group, so it stays
	// a pure gauge degree of freedom (the paper's corner case).
	promote := func(ids []int) {
		prod := pauli.Op{}
		for _, id := range ids {
			g, _ := work.GaugeByID(id)
			prod = pauli.Mul(prod, g.Op)
		}
		if prod.IsIdentity() {
			return
		}
		for _, g := range work.Gauges() {
			if !prod.Commutes(g.Op) {
				return
			}
		}
		for _, s := range work.Stabs() {
			if !prod.Commutes(s.Op) {
				return
			}
		}
		b.SuperIDs = append(b.SuperIDs, work.AddSuperStab(prod, ids))
	}
	promote(demZ)
	promote(demX)

	// (5) The direct gauges have served their purpose in the calculus;
	// with them gone nothing acts on q and the qubit leaves the code.
	work.RemoveGauge(xgid)
	work.RemoveGauge(zgid)
	if err := work.RemoveDataQubit(q); err != nil {
		return nil, fmt.Errorf("deform: bandage %v: %w", q, err)
	}
	if err := work.Validate(); err != nil {
		return nil, fmt.Errorf("deform: bandage %v left an invalid code: %w", q, err)
	}
	c.ReplaceWith(work)
	return b, nil
}

// rerouteLogical multiplies the logical representative of the given CSS
// type by an adjacent same-type stabilizer so it no longer acts on q.
func rerouteLogical(c *code.Code, q lattice.Coord, typ lattice.CheckType) error {
	var logical pauli.Op
	if typ == lattice.XCheck {
		logical = c.LogicalX()
	} else {
		logical = c.LogicalZ()
	}
	if !logical.ActsOn(q) {
		return nil
	}
	best, found := code.Stab{}, false
	for _, s := range c.StabsOn(q, typ) {
		if s.IsSuper() {
			continue
		}
		if !found || s.ID < best.ID {
			best, found = s, true
		}
	}
	if !found {
		return fmt.Errorf("deform: bandage %v: no %v stabilizer to reroute the logical", q, typ)
	}
	moved := pauli.Mul(logical, best.Op)
	if moved.ActsOn(q) {
		return fmt.Errorf("deform: bandage %v: rerouted logical still acts on the site", q)
	}
	if typ == lattice.XCheck {
		c.SetLogicalX(moved)
	} else {
		c.SetLogicalZ(moved)
	}
	return nil
}

// Undo reverses the bandage on c: the super-stabilizers are withdrawn, the
// site rejoins the code, every demoted gauge is re-promoted to its
// original check, and the logical representatives are restored. Overlapping
// bandages must be undone in reverse application order. On error c is left
// untouched.
func (b *Bandage) Undo(c *code.Code) error {
	work := c.Clone()
	for _, id := range b.SuperIDs {
		if !work.RemoveStab(id) {
			return fmt.Errorf("deform: undo bandage %v: super-stabilizer %d missing", b.Site, id)
		}
	}
	if err := work.AddDataQubit(b.Site); err != nil {
		return fmt.Errorf("deform: undo bandage %v: %w", b.Site, err)
	}
	for _, d := range b.demoted {
		if !work.RemoveGauge(d.gaugeID) {
			return fmt.Errorf("deform: undo bandage %v: gauge %d missing", b.Site, d.gaugeID)
		}
		work.AddStab(d.op, d.ancilla)
	}
	work.SetLogicalX(b.origLX)
	work.SetLogicalZ(b.origLZ)
	if err := work.Validate(); err != nil {
		return fmt.Errorf("deform: undo bandage %v left an invalid code: %w", b.Site, err)
	}
	c.ReplaceWith(work)
	return nil
}
