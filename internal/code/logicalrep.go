package code

import (
	"fmt"
	"math/bits"
	"slices"

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
	qubits, err := c.shortestLogicalPath(logicalType, c.DataQubits())
	if err != nil {
		return pauli.Op{}, err
	}
	return cssOp(logicalType, qubits), nil
}

// cssOp returns the type-T operator on the given qubits.
func cssOp(typ lattice.CheckType, qubits []lattice.Coord) pauli.Op {
	if typ == lattice.ZCheck {
		return pauli.Z(qubits...)
	}
	return pauli.X(qubits...)
}

// RepairLogical multiplies op by gauge operators so the result commutes with
// every gauge operator, turning a dressed logical into a bare one. It
// returns an error when no gauge combination fixes the anti-commutations
// (which would mean op is not a logical of this code at all).
func (c *Code) RepairLogical(op pauli.Op) (pauli.Op, error) {
	var r gaugeRepair
	return r.repair(c, op)
}

// gaugeRepair repairs logicals against one code state's gauges. It builds
// the gauges' anti-commutation Gram matrix on the first repair that needs
// it and keeps it for the next, so a refresh that repairs both logicals
// builds it once.
type gaugeRepair struct {
	gram *gf2.Matrix
}

func (r *gaugeRepair) repair(c *Code, op pauli.Op) (pauli.Op, error) {
	n := len(c.gauges)
	var pattern gf2.Vec
	for i, g := range c.gauges {
		if !op.Commutes(g.Op) {
			if pattern.Len() == 0 {
				pattern = gf2.NewVec(n)
			}
			pattern.Set(i, true)
		}
	}
	if pattern.Len() == 0 {
		return op, nil
	}
	// Solve Gramᵀ·x = pattern over GF(2): x selects gauge generators whose
	// product flips exactly the anti-commuting entries. Gram is symmetric.
	if r.gram == nil {
		r.gram = gf2.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !c.gauges[i].Op.Commutes(c.gauges[j].Op) {
					r.gram.Set(i, j, true)
					r.gram.Set(j, i, true)
				}
			}
		}
	}
	combo, ok := r.gram.Solve(pattern)
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
	return c.algebraicLogical(logicalType, c.DataQubits())
}

// algebraicLogical is AlgebraicLogical over qs, the sorted data list, in
// dense rows of words. The same-type operators are reduced once to an
// echelon basis. The opposite-type matrix is brought to reduced row echelon
// form, which is unique, so its nullspace basis (one vector per free column,
// ascending) is the one gf2's Nullspace returns; its vectors are made one at
// a time and tested against the basis until one lies outside the span.
func (c *Code) algebraicLogical(logicalType lattice.CheckType, qs []lattice.Coord) (pauli.Op, error) {
	n, w, ops := len(qs), max((len(qs)+63)/64, 1), len(c.stabs)+len(c.gauges)
	same := bitRows{w: w, words: make([]uint64, 0, ops*w)}
	opp := bitRows{w: w, words: make([]uint64, 0, ops*w)}
	collect := func(op pauli.Op) {
		t, ok := op.CSSType()
		if !ok || op.IsIdentity() {
			return
		}
		rows, supp := &opp, op.XSupport()
		if t == lattice.ZCheck {
			supp = op.ZSupport()
		}
		if t == logicalType {
			rows = &same
		}
		row := rows.add()
		for _, q := range supp {
			if i, found := position(qs, q); found {
				row[i/64] |= 1 << (i % 64)
			}
		}
	}
	for _, s := range c.stabs {
		collect(s.Op)
	}
	for _, g := range c.gauges {
		collect(g.Op)
	}
	same.echelon()
	pivots := opp.rref(n)
	vecs := make([]uint64, 2*same.w)
	v, rem := vecs[:same.w], vecs[same.w:]
	next := 0 // index into pivots of the next pivot column
	for col := 0; col < n; col++ {
		if next < len(pivots) && pivots[next] == col {
			next++
			continue
		}
		clear(v)
		setBit(v, col)
		for r, p := range pivots {
			if getBit(opp.row(r), col) {
				setBit(v, p)
			}
		}
		copy(rem, v)
		if same.reduce(rem) {
			continue // in the span of the same-type operators
		}
		var coords []lattice.Coord
		for i := range qs {
			if getBit(v, i) {
				coords = append(coords, qs[i])
			}
		}
		return cssOp(logicalType, coords), nil
	}
	return pauli.Op{}, fmt.Errorf("code: no %v logical class exists (k = 0?)", logicalType)
}

// bitRows is a dense GF(2) matrix whose rows are w words wide, stored end
// to end in one slice.
type bitRows struct {
	w     int
	words []uint64
	pivot []int // per row, after echelon
}

func (m *bitRows) rows() int { return len(m.words) / m.w }

func (m *bitRows) row(i int) []uint64 { return m.words[i*m.w : (i+1)*m.w] }

// add appends a zero row and returns it.
func (m *bitRows) add() []uint64 {
	n := len(m.words)
	m.words = slices.Grow(m.words, m.w)[:n+m.w]
	clear(m.words[n:])
	return m.words[n:]
}

// echelon replaces the rows by an echelon basis of their span: each row in
// turn is reduced by the kept rows and kept, with its lowest set bit as its
// pivot, unless it vanished. A kept row is zero at every earlier pivot.
func (m *bitRows) echelon() {
	kept := 0
	for i, n := 0, m.rows(); i < n; i++ {
		r := m.row(i)
		m.pivot = m.pivot[:kept]
		if m.reduce(r) {
			continue
		}
		copy(m.row(kept), r)
		m.pivot = append(m.pivot, lowestBit(r))
		kept++
	}
	m.words = m.words[:kept*m.w]
}

// reduce eliminates v's bits at the echelon basis's pivots, in row order,
// and reports whether v became zero, that is whether it lay in the span.
func (m *bitRows) reduce(v []uint64) bool {
	for k, p := range m.pivot {
		if getBit(v, p) {
			xorInto(v, m.row(k))
		}
	}
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// rref brings the first cols columns to reduced row echelon form in place,
// choosing as pivot the first row at or below the current rank that has the
// column's bit, and returns the pivot columns in order.
func (m *bitRows) rref(cols int) []int {
	var pivots []int
	rank, n := 0, m.rows()
	tmp := make([]uint64, m.w)
	for col := 0; col < cols && rank < n; col++ {
		p := -1
		for r := rank; r < n; r++ {
			if getBit(m.row(r), col) {
				p = r
				break
			}
		}
		if p < 0 {
			continue
		}
		if p != rank {
			copy(tmp, m.row(p))
			copy(m.row(p), m.row(rank))
			copy(m.row(rank), tmp)
		}
		for r := 0; r < n; r++ {
			if r != rank && getBit(m.row(r), col) {
				xorInto(m.row(r), m.row(rank))
			}
		}
		pivots = append(pivots, col)
		rank++
	}
	return pivots
}

func getBit(v []uint64, i int) bool { return v[i/64]>>(i%64)&1 == 1 }

func setBit(v []uint64, i int) { v[i/64] |= 1 << (i % 64) }

func xorInto(dst, src []uint64) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

func lowestBit(v []uint64) int {
	for i, x := range v {
		if x != 0 {
			return i*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// RefreshLogicals recomputes both logical representatives from the current
// stabilizer and gauge structure and installs them. Crossing parities in
// the chain graph are classified against the opposite representative, so
// the refresh first seeds a guaranteed-valid bare logical Z algebraically,
// then minimizes X against it and finally re-minimizes Z against the
// minimal X. That last walk has exactly DistanceZ's inputs — the X
// generators, and the installed X as crossing — so its length is left
// memoized as DistanceZ; DistanceX needs a walk of its own, since the
// minimal Z replaced the seed X was minimized against.
func (c *Code) RefreshLogicals() error {
	dz, err := c.refreshLogicals()
	// The logicals were written directly; clear the memo whatever the
	// outcome, since a failed refresh may leave them partly replaced. The
	// data qubits did not change, so their list stays.
	qs := c.dataQubits.Load()
	c.invalidate()
	c.dataQubits.Store(qs)
	if err != nil {
		return err
	}
	c.distZ.Store(int32(dz))
	return nil
}

// refreshLogicals does RefreshLogicals' work over one sorted data list and
// one gauge Gram matrix, and returns the length of the final Z walk.
func (c *Code) refreshLogicals() (dz int, err error) {
	qs := c.DataQubits()
	seed, err := c.algebraicLogical(lattice.ZCheck, qs)
	if err != nil {
		return 0, err
	}
	c.logicalZ = seed
	var repair gaugeRepair
	refresh := func(typ lattice.CheckType) (int, error) {
		qubits, err := c.shortestLogicalPath(typ, qs)
		if err != nil {
			return 0, err
		}
		rep, err := repair.repair(c, cssOp(typ, qubits))
		if err != nil {
			return 0, fmt.Errorf("code: logical %v: %w", typ, err)
		}
		if typ == lattice.ZCheck {
			c.logicalZ = rep
		} else {
			c.logicalX = rep
		}
		return len(qubits), nil
	}
	if _, err := refresh(lattice.XCheck); err != nil {
		return 0, err
	}
	if dz, err = refresh(lattice.ZCheck); err != nil {
		return 0, err
	}
	if c.logicalX.Commutes(c.logicalZ) {
		return 0, fmt.Errorf("code: refreshed logicals commute; patch topology broken")
	}
	return dz, nil
}
