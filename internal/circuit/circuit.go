// Package circuit lowers a (possibly deformed) code.Code to the syndrome
// extraction schedule executed every QEC cycle: which operator is measured
// through which ancilla, in which CNOT order, and on which round parity.
//
// Plain stabilizers are measured every round through their ancilla. Gauge
// operators anti-commute with opposite-type gauge operators sharing their
// super-stabilizer region, so X-type gauges are measured on even rounds and
// Z-type gauges on odd rounds; the super-stabilizer values are the products
// of their members' outcomes and form detectors across a two-round period
// (the paper's §II-C measurement scheme). Weight-1 direct gauges and direct
// stabilizers are measured on the data qubit itself.
package circuit

import (
	"fmt"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
)

// EveryRound marks an operator measured in all rounds; parities 0 and 1
// restrict measurement to even or odd rounds.
const EveryRound = -1

// MeasuredOp is one measurement slot of the per-round schedule.
type MeasuredOp struct {
	Slot    int
	Basis   lattice.CheckType // X: |+> ancilla, CX anc→data, MX; Z: |0>, CX data→anc, MZ
	Ancilla lattice.Coord
	Data    []lattice.Coord // CNOT targets in schedule order
	Direct  bool            // measured directly on the data qubit (weight 1)
	Parity  int             // EveryRound, 0 or 1
}

// Observable is a deterministic parity check the decoder can track: a
// stabilizer whose value each round is the XOR of the listed slots.
type Observable struct {
	StabID  int
	Type    lattice.CheckType
	Op      code.Stab
	Slots   []int // measurement slots whose XOR yields the value
	Parity  int   // EveryRound, or the parity of rounds where available
	Support []lattice.Coord
}

// Schedule is the full syndrome-extraction program of one code.
type Schedule struct {
	Code        *code.Code
	Ops         []MeasuredOp
	Observables []Observable
}

// xOrder and zOrder are the standard rotated-surface-code CNOT dances: the
// "Z" pattern for X checks and the "N" pattern for Z checks, which together
// are conflict-free and avoid distance-halving hook errors.
var xOrder = [4]lattice.Coord{{Row: -1, Col: -1}, {Row: -1, Col: 1}, {Row: 1, Col: -1}, {Row: 1, Col: 1}}
var zOrder = [4]lattice.Coord{{Row: -1, Col: -1}, {Row: 1, Col: -1}, {Row: -1, Col: 1}, {Row: 1, Col: 1}}

// NewSchedule lowers the code to its measurement schedule.
func NewSchedule(c *code.Code) (*Schedule, error) {
	s := &Schedule{Code: c}
	slotOf := map[int]int{} // stab/gauge ID -> slot

	addOp := func(op MeasuredOp) int {
		op.Slot = len(s.Ops)
		s.Ops = append(s.Ops, op)
		return op.Slot
	}

	for _, g := range c.Gauges() {
		typ, ok := g.Op.CSSType()
		if !ok {
			return nil, fmt.Errorf("circuit: gauge %d is not CSS", g.ID)
		}
		parity := 0
		if typ == lattice.ZCheck {
			parity = 1
		}
		if g.Direct {
			supp := g.Op.Support()
			if len(supp) != 1 {
				return nil, fmt.Errorf("circuit: direct gauge %d has weight %d", g.ID, len(supp))
			}
			slotOf[g.ID] = addOp(MeasuredOp{Basis: typ, Ancilla: supp[0], Data: supp, Direct: true, Parity: parity})
			continue
		}
		slotOf[g.ID] = addOp(MeasuredOp{Basis: typ, Ancilla: g.Ancilla, Data: scheduleOrder(g.Ancilla, g.Op.Support(), typ), Parity: parity})
	}

	for _, st := range c.Stabs() {
		typ, ok := st.Op.CSSType()
		if !ok {
			return nil, fmt.Errorf("circuit: stabilizer %d is not CSS", st.ID)
		}
		obs := Observable{StabID: st.ID, Type: typ, Op: st, Parity: EveryRound, Support: st.Op.Support()}
		switch {
		case st.IsSuper():
			memberParity := EveryRound
			for _, id := range st.MemberIDs {
				slot, ok := slotOf[id]
				if !ok {
					return nil, fmt.Errorf("circuit: super-stabilizer %d references unmeasured gauge %d", st.ID, id)
				}
				p := s.Ops[slot].Parity
				if memberParity == EveryRound {
					memberParity = p
				} else if memberParity != p {
					return nil, fmt.Errorf("circuit: super-stabilizer %d mixes member parities", st.ID)
				}
				obs.Slots = append(obs.Slots, slot)
			}
			obs.Parity = memberParity
		case st.Direct:
			supp := st.Op.Support()
			slot := addOp(MeasuredOp{Basis: typ, Ancilla: supp[0], Data: supp, Direct: true, Parity: EveryRound})
			obs.Slots = []int{slot}
		default:
			slot := addOp(MeasuredOp{Basis: typ, Ancilla: st.Ancilla, Data: scheduleOrder(st.Ancilla, st.Op.Support(), typ), Parity: EveryRound})
			obs.Slots = []int{slot}
		}
		s.Observables = append(s.Observables, obs)
	}
	return s, nil
}

// scheduleOrder sorts a check's support into its CNOT dance order. Checks
// whose support matches the standard diagonal-neighbour pattern use the
// conflict-free dance; merged checks with far-flung support fall back to
// row-major order (their circuits are an abstraction for the re-routed
// measurement of a merged boundary check).
func scheduleOrder(ancilla lattice.Coord, support []lattice.Coord, typ lattice.CheckType) []lattice.Coord {
	order := xOrder
	if typ == lattice.ZCheck {
		order = zOrder
	}
	var out []lattice.Coord
	used := make(map[lattice.Coord]bool, len(support))
	for _, off := range order {
		q := ancilla.Add(off)
		for _, sq := range support {
			if sq == q {
				out = append(out, q)
				used[q] = true
			}
		}
	}
	// Append non-diagonal support (merged checks) in row-major order.
	rest := make([]lattice.Coord, 0, len(support))
	for _, q := range support {
		if !used[q] {
			rest = append(rest, q)
		}
	}
	lattice.SortCoords(rest)
	return append(out, rest...)
}

// MeasuredThisRound reports whether the op fires in the given round.
func (m MeasuredOp) MeasuredThisRound(round int) bool {
	return m.Parity == EveryRound || m.Parity == round%2
}

// AvailableThisRound reports whether the observable's value is produced in
// the given round.
func (o Observable) AvailableThisRound(round int) bool {
	return o.Parity == EveryRound || o.Parity == round%2
}
