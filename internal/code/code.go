// Package code represents CSS subsystem stabilizer codes under deformation.
//
// A Code tracks the live configuration of one logical qubit patch: the data
// qubits currently in the code, the syndrome (ancilla) qubits in service,
// the measured stabilizer generators, the measured gauge operators, and
// representative logical operators. The paper's generator representation
// (Appendix A) maps onto this as
//
//	s_1..s_{n-k-l}  -> Stabs   (each measurable directly or via gauge products)
//	gauge pairs     -> Gauges  (the measured members; pairs are implicit)
//	X̄_L, Z̄_L        -> LogicalX, LogicalZ
//
// All mutation goes through the exported mutators so that the gauge layer
// (package gauge) and the instruction layer (package deform) can maintain
// the invariants checked by Validate, and so that the values memoized per
// code state (DataQubits, Fingerprint, DistanceX, DistanceZ) are cleared
// on every change.
package code

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"surfdeformer/internal/lattice"
	"surfdeformer/internal/pauli"
)

// Stab is one measured stabilizer generator.
//
// A plain stabilizer is measured every cycle through the syndrome qubit at
// Ancilla. A super-stabilizer (born from defect removal) has no ancilla of
// its own: its value is the product of the gauge operators listed in
// MemberIDs, which are measured on alternating cycles.
type Stab struct {
	ID        int
	Op        pauli.Op
	Ancilla   lattice.Coord // meaningful iff len(MemberIDs) == 0
	MemberIDs []int         // gauge IDs whose product equals Op
	Direct    bool          // weight-1 operator fixed by direct data measurement
}

// IsSuper reports whether the stabilizer is inferred from gauge products.
func (s Stab) IsSuper() bool { return len(s.MemberIDs) > 0 }

// Gauge is one measured gauge operator.
type Gauge struct {
	ID      int
	Op      pauli.Op
	Ancilla lattice.Coord // syndrome qubit used, or the data qubit itself when Direct
	Direct  bool          // weight-1 direct data-qubit measurement (no ancilla)
}

// Code is a live CSS subsystem code encoding one logical qubit.
type Code struct {
	data      map[lattice.Coord]bool
	syndromes map[lattice.Coord]bool

	stabs  []Stab
	gauges []Gauge
	nextID int

	logicalX pauli.Op
	logicalZ pauli.Op

	// Values derived from the content above, computed on first use and
	// cleared by every mutator (invalidate). They are atomics so that
	// concurrent readers of one shared code stay race-free; two first reads
	// may both compute, and store the same value.
	dataQubits   atomic.Pointer[[]lattice.Coord]
	fingerprint  atomic.Pointer[string]
	distX, distZ atomic.Int32 // 0 = not computed (a logical has weight ≥ 1)
}

// invalidate clears the memoized derived values after a content change.
func (c *Code) invalidate() {
	c.dataQubits.Store(nil)
	c.fingerprint.Store(nil)
	c.distX.Store(0)
	c.distZ.Store(0)
}

// New returns an empty code over the given data and syndrome qubits, with
// no stabilizers, gauges or logicals installed. It is the entry point for
// builders that assemble deformed codes from scratch.
func New(data, syndromes []lattice.Coord) *Code {
	c := &Code{
		data:      make(map[lattice.Coord]bool, len(data)),
		syndromes: make(map[lattice.Coord]bool, len(syndromes)),
	}
	for _, q := range data {
		c.data[q] = true
	}
	for _, q := range syndromes {
		c.syndromes[q] = true
	}
	return c
}

// Reserve makes room for stabs more stabilizers and gauges more gauge
// operators, so that a builder that knows its counts up front adds them
// without regrowing either list. It changes no content.
func (c *Code) Reserve(stabs, gauges int) {
	c.stabs = slices.Grow(c.stabs, stabs)
	c.gauges = slices.Grow(c.gauges, gauges)
}

// FromPatch builds the code of a fresh (undeformed) rotated surface code
// patch: every check is a plain stabilizer, there are no gauge operators.
func FromPatch(p *lattice.Patch) *Code {
	c := &Code{
		data:      make(map[lattice.Coord]bool, len(p.Data)),
		syndromes: make(map[lattice.Coord]bool, len(p.Checks)),
	}
	for _, q := range p.Data {
		c.data[q] = true
	}
	for _, ch := range p.Checks {
		c.syndromes[ch.Center] = true
		var op pauli.Op
		if ch.Type == lattice.XCheck {
			op = pauli.X(ch.Support...)
		} else {
			op = pauli.Z(ch.Support...)
		}
		c.stabs = append(c.stabs, Stab{ID: c.nextID, Op: op, Ancilla: ch.Center})
		c.nextID++
	}
	c.logicalX = pauli.X(p.LogicalX...)
	c.logicalZ = pauli.Z(p.LogicalZ...)
	return c
}

// Clone returns a deep copy of the code. The copy starts with an empty memo.
func (c *Code) Clone() *Code {
	n := &Code{
		data:      make(map[lattice.Coord]bool, len(c.data)),
		syndromes: make(map[lattice.Coord]bool, len(c.syndromes)),
		stabs:     append([]Stab(nil), c.stabs...),
		gauges:    append([]Gauge(nil), c.gauges...),
		nextID:    c.nextID,
		logicalX:  c.logicalX,
		logicalZ:  c.logicalZ,
	}
	for q := range c.data {
		n.data[q] = true
	}
	for q := range c.syndromes {
		n.syndromes[q] = true
	}
	for i := range n.stabs {
		n.stabs[i].MemberIDs = append([]int(nil), c.stabs[i].MemberIDs...)
	}
	return n
}

// NumData returns the number of data qubits currently in the code.
func (c *Code) NumData() int { return len(c.data) }

// NumSyndrome returns the number of syndrome qubits in service.
func (c *Code) NumSyndrome() int { return len(c.syndromes) }

// NumQubits returns the total physical qubits the code occupies.
func (c *Code) NumQubits() int { return len(c.data) + len(c.syndromes) }

// HasData reports whether q is an active data qubit.
func (c *Code) HasData(q lattice.Coord) bool { return c.data[q] }

// HasSyndrome reports whether q is an active syndrome qubit.
func (c *Code) HasSyndrome(q lattice.Coord) bool { return c.syndromes[q] }

// DataQubits returns the sorted list of active data qubits, computed once
// per code state. The list is shared by every caller until the next
// mutation, so callers must not write to it; its capacity is its length,
// so an append copies it.
func (c *Code) DataQubits() []lattice.Coord {
	if qs := c.dataQubits.Load(); qs != nil {
		return *qs
	}
	out := make([]lattice.Coord, 0, len(c.data))
	for q := range c.data {
		out = append(out, q)
	}
	lattice.SortCoords(out)
	c.dataQubits.Store(&out)
	return out
}

// SyndromeQubits returns the sorted list of active syndrome qubits.
func (c *Code) SyndromeQubits() []lattice.Coord {
	out := make([]lattice.Coord, 0, len(c.syndromes))
	for q := range c.syndromes {
		out = append(out, q)
	}
	lattice.SortCoords(out)
	return out
}

// Stabs returns the stabilizer generator list. Callers must not mutate it:
// a change that bypasses the mutators would leave the memo stale.
func (c *Code) Stabs() []Stab { return c.stabs }

// Gauges returns the measured gauge operator list. Callers must not mutate
// it: a change that bypasses the mutators would leave the memo stale.
func (c *Code) Gauges() []Gauge { return c.gauges }

// LogicalX returns the representative logical X operator.
func (c *Code) LogicalX() pauli.Op { return c.logicalX }

// LogicalZ returns the representative logical Z operator.
func (c *Code) LogicalZ() pauli.Op { return c.logicalZ }

// SetLogicalX replaces the representative logical X operator.
func (c *Code) SetLogicalX(op pauli.Op) {
	c.logicalX = op
	c.invalidate()
}

// SetLogicalZ replaces the representative logical Z operator.
func (c *Code) SetLogicalZ(op pauli.Op) {
	c.logicalZ = op
	c.invalidate()
}

// StabByID returns the stabilizer with the given ID.
func (c *Code) StabByID(id int) (Stab, bool) {
	for _, s := range c.stabs {
		if s.ID == id {
			return s, true
		}
	}
	return Stab{}, false
}

// GaugeByID returns the gauge operator with the given ID.
func (c *Code) GaugeByID(id int) (Gauge, bool) {
	for _, g := range c.gauges {
		if g.ID == id {
			return g, true
		}
	}
	return Gauge{}, false
}

// StabsOn returns the stabilizer generators acting on qubit q, optionally
// filtered by CSS type.
func (c *Code) StabsOn(q lattice.Coord, typ lattice.CheckType) []Stab {
	var out []Stab
	for _, s := range c.stabs {
		t, ok := s.Op.CSSType()
		if ok && t == typ && s.Op.ActsOn(q) {
			out = append(out, s)
		}
	}
	return out
}

// StabAtAncilla returns the plain stabilizer measured by the syndrome qubit
// at coordinate a, if any.
func (c *Code) StabAtAncilla(a lattice.Coord) (Stab, bool) {
	for _, s := range c.stabs {
		if !s.IsSuper() && s.Ancilla == a {
			return s, true
		}
	}
	return Stab{}, false
}

// AddStab appends a plain stabilizer measured at the given ancilla and
// returns its ID.
func (c *Code) AddStab(op pauli.Op, ancilla lattice.Coord) int {
	id := c.nextID
	c.nextID++
	c.stabs = append(c.stabs, Stab{ID: id, Op: op, Ancilla: ancilla})
	c.invalidate()
	return id
}

// AddDirectStab appends a weight-1 stabilizer fixed by direct data-qubit
// measurement (gauge fixing of a single-qubit operator) and returns its ID.
func (c *Code) AddDirectStab(op pauli.Op) int {
	id := c.nextID
	c.nextID++
	anc := lattice.Coord{}
	if supp := op.Support(); len(supp) == 1 {
		anc = supp[0]
	}
	c.stabs = append(c.stabs, Stab{ID: id, Op: op, Ancilla: anc, Direct: true})
	c.invalidate()
	return id
}

// AddSuperStab appends a super-stabilizer inferred from the given gauge
// members and returns its ID.
func (c *Code) AddSuperStab(op pauli.Op, memberIDs []int) int {
	id := c.nextID
	c.nextID++
	c.stabs = append(c.stabs, Stab{ID: id, Op: op, MemberIDs: append([]int(nil), memberIDs...)})
	c.invalidate()
	return id
}

// AddGauge appends a measured gauge operator and returns its ID.
func (c *Code) AddGauge(op pauli.Op, ancilla lattice.Coord, direct bool) int {
	id := c.nextID
	c.nextID++
	c.gauges = append(c.gauges, Gauge{ID: id, Op: op, Ancilla: ancilla, Direct: direct})
	c.invalidate()
	return id
}

// RemoveStab deletes the stabilizer with the given ID.
func (c *Code) RemoveStab(id int) bool {
	for i, s := range c.stabs {
		if s.ID == id {
			c.stabs = append(c.stabs[:i], c.stabs[i+1:]...)
			c.invalidate()
			return true
		}
	}
	return false
}

// RemoveGauge deletes the gauge operator with the given ID. It also removes
// the ID from any super-stabilizer member list; a super-stabilizer losing a
// member this way becomes unmeasurable and is deleted too (callers are
// expected to have rebuilt the affected stabilizers first).
func (c *Code) RemoveGauge(id int) bool {
	found := false
	for i, g := range c.gauges {
		if g.ID == id {
			c.gauges = append(c.gauges[:i], c.gauges[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return false
	}
	var keep []Stab
	for _, s := range c.stabs {
		drop := false
		for _, m := range s.MemberIDs {
			if m == id {
				drop = true
				break
			}
		}
		if !drop {
			keep = append(keep, s)
		}
	}
	c.stabs = keep
	c.invalidate()
	return true
}

// ReplaceStabOp swaps the operator of stabilizer id (used by S2S rewrites).
func (c *Code) ReplaceStabOp(id int, op pauli.Op) bool {
	for i := range c.stabs {
		if c.stabs[i].ID == id {
			c.stabs[i].Op = op
			c.invalidate()
			return true
		}
	}
	return false
}

// ReplaceGaugeOp swaps the operator of gauge id (used by G2G rewrites).
func (c *Code) ReplaceGaugeOp(id int, op pauli.Op) bool {
	for i := range c.gauges {
		if c.gauges[i].ID == id {
			c.gauges[i].Op = op
			c.invalidate()
			return true
		}
	}
	return false
}

// AddDataQubit brings a new data qubit into the code.
func (c *Code) AddDataQubit(q lattice.Coord) error {
	if c.data[q] {
		return fmt.Errorf("code: data qubit %v already present", q)
	}
	c.data[q] = true
	c.invalidate()
	return nil
}

// RemoveDataQubit takes a data qubit out of the code. Every measured
// operator must already have been rewritten to avoid it.
func (c *Code) RemoveDataQubit(q lattice.Coord) error {
	if !c.data[q] {
		return fmt.Errorf("code: data qubit %v not present", q)
	}
	for _, s := range c.stabs {
		if s.Op.ActsOn(q) {
			return fmt.Errorf("code: stabilizer %d still acts on %v", s.ID, q)
		}
	}
	for _, g := range c.gauges {
		if g.Op.ActsOn(q) {
			return fmt.Errorf("code: gauge %d still acts on %v", g.ID, q)
		}
	}
	if c.logicalX.ActsOn(q) || c.logicalZ.ActsOn(q) {
		return fmt.Errorf("code: a logical operator still acts on %v", q)
	}
	delete(c.data, q)
	c.invalidate()
	return nil
}

// AddSyndromeQubit brings a syndrome qubit into service.
func (c *Code) AddSyndromeQubit(q lattice.Coord) error {
	if c.syndromes[q] {
		return fmt.Errorf("code: syndrome qubit %v already present", q)
	}
	c.syndromes[q] = true
	c.invalidate()
	return nil
}

// RemoveSyndromeQubit takes a syndrome qubit out of service. No plain
// stabilizer or ancilla-based gauge may still be using it.
func (c *Code) RemoveSyndromeQubit(q lattice.Coord) error {
	if !c.syndromes[q] {
		return fmt.Errorf("code: syndrome qubit %v not present", q)
	}
	for _, s := range c.stabs {
		if !s.IsSuper() && s.Ancilla == q {
			return fmt.Errorf("code: stabilizer %d still measured at %v", s.ID, q)
		}
	}
	for _, g := range c.gauges {
		if !g.Direct && g.Ancilla == q {
			return fmt.Errorf("code: gauge %d still measured at %v", g.ID, q)
		}
	}
	delete(c.syndromes, q)
	c.invalidate()
	return nil
}

// ReplaceWith makes src's content the content of c, which is how a change
// staged on a Clone commits in place. The two share storage afterwards, so
// the caller must not use src again.
func (c *Code) ReplaceWith(src *Code) {
	c.data, c.syndromes = src.data, src.syndromes
	c.stabs, c.gauges, c.nextID = src.stabs, src.gauges, src.nextID
	c.logicalX, c.logicalZ = src.logicalX, src.logicalZ
	c.invalidate()
}

// Fingerprint returns the full structural serialization of the code: data
// and syndrome qubits, stabilizers with their ancillas, Direct flags and
// super-stabilizer membership, gauges, and both logical representatives.
// Two codes with equal fingerprints have identical detector error models,
// which is why every DEM cache keys on it: a sim.DEMKey holds this string
// itself, not a copy and not a hash of it, so two code objects share
// entries exactly when their fingerprints are equal. Only equality is meaningful: the
// encoding is binary — varints, every list prefixed by its length — and
// equal exactly when the text form the package's tests keep as an oracle
// is. It is computed once per code state.
func (c *Code) Fingerprint() string {
	if fp := c.fingerprint.Load(); fp != nil {
		return *fp
	}
	b := make([]byte, 0, 512)
	b = appendCoords(b, c.DataQubits())
	b = appendCoords(b, c.SyndromeQubits())
	b = binary.AppendUvarint(b, uint64(len(c.stabs)))
	for _, s := range c.stabs {
		b = appendCoord(appendOp(b, s.Op), s.Ancilla)
		b = append(b, boolByte(s.Direct))
		b = binary.AppendUvarint(b, uint64(len(s.MemberIDs)))
		for _, id := range s.MemberIDs {
			b = binary.AppendVarint(b, int64(id))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(c.gauges)))
	for _, g := range c.gauges {
		b = append(appendCoord(appendOp(b, g.Op), g.Ancilla), boolByte(g.Direct))
	}
	b = appendOp(appendOp(b, c.logicalX), c.logicalZ)
	fp := string(b)
	c.fingerprint.Store(&fp)
	return fp
}

// appendOp appends an operator's X and Z supports.
func appendOp(b []byte, op pauli.Op) []byte {
	return appendCoords(appendCoords(b, op.XSupport()), op.ZSupport())
}

// appendCoords appends a length-prefixed coordinate list.
func appendCoords(b []byte, qs []lattice.Coord) []byte {
	b = binary.AppendUvarint(b, uint64(len(qs)))
	for _, q := range qs {
		b = appendCoord(b, q)
	}
	return b
}

// appendCoord appends q as two varints.
func appendCoord(b []byte, q lattice.Coord) []byte {
	return binary.AppendVarint(binary.AppendVarint(b, int64(q.Row)), int64(q.Col))
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// Bounds returns the inclusive bounding box of the active data qubits.
func (c *Code) Bounds() (min, max lattice.Coord) {
	first := true
	for q := range c.data {
		if first {
			min, max = q, q
			first = false
			continue
		}
		if q.Row < min.Row {
			min.Row = q.Row
		}
		if q.Col < min.Col {
			min.Col = q.Col
		}
		if q.Row > max.Row {
			max.Row = q.Row
		}
		if q.Col > max.Col {
			max.Col = q.Col
		}
	}
	return min, max
}

// String summarizes the code.
func (c *Code) String() string {
	return fmt.Sprintf("code{data:%d syn:%d stabs:%d gauges:%d dX:%d dZ:%d}",
		len(c.data), len(c.syndromes), len(c.stabs), len(c.gauges), c.DistanceX(), c.DistanceZ())
}

// sortedStabIDs returns stabilizer IDs ascending (test helper determinism).
func (c *Code) sortedStabIDs() []int {
	ids := make([]int, len(c.stabs))
	for i, s := range c.stabs {
		ids[i] = s.ID
	}
	sort.Ints(ids)
	return ids
}
