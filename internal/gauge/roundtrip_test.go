package gauge

import (
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/gf2"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/pauli"
)

// stabGroupMatrix encodes the stabilizer generators of the given codes as
// symplectic GF(2) rows over a fixed qubit index, so stabilizer groups of
// codes over the same data set can be compared as row spans.
func stabGroupMatrix(t *testing.T, idx map[lattice.Coord]int, codes ...*code.Code) *gf2.Matrix {
	t.Helper()
	n := len(idx)
	m := gf2.NewMatrix(0, 2*n)
	for _, c := range codes {
		for _, s := range c.Stabs() {
			v := gf2.NewVec(2 * n)
			for _, q := range s.Op.XSupport() {
				i, ok := idx[q]
				if !ok {
					t.Fatalf("stabilizer %d acts outside the index: %v", s.ID, q)
				}
				v.Set(i, true)
			}
			for _, q := range s.Op.ZSupport() {
				i, ok := idx[q]
				if !ok {
					t.Fatalf("stabilizer %d acts outside the index: %v", s.ID, q)
				}
				v.Set(n+i, true)
			}
			m.AppendRow(v)
		}
	}
	return m
}

func sameStabGroup(t *testing.T, a, b *code.Code) bool {
	t.Helper()
	idx := map[lattice.Coord]int{}
	for i, q := range a.DataQubits() {
		idx[q] = i
	}
	// Two row spans are equal exactly when each has the rank of their union.
	r := stabGroupMatrix(t, idx, a, b).Rank()
	return stabGroupMatrix(t, idx, a).Rank() == r && stabGroupMatrix(t, idx, b).Rank() == r
}

// roundTrip applies S2G with a single-qubit operator at q and then G2S on
// each demoted gauge in order, which re-promotes every demoted check (each
// promotion first sacrifices the introduced single-qubit gauge, fixing the
// gauge freedom S2G opened). Reports whether S2G applied at all.
func roundTrip(t *testing.T, c *code.Code, op pauli.Op, q lattice.Coord) bool {
	t.Helper()
	demoted, _, err := S2G(c, op, q, true)
	if err != nil {
		return false
	}
	for _, id := range demoted {
		if err := G2S(c, id); err != nil {
			t.Fatalf("G2S(%d) after S2G at %v: %v", id, q, err)
		}
	}
	return true
}

// TestS2GG2SRoundTripProperty is the composition-law property test: for
// every data qubit of a patch and both single-qubit operator types, an
// S2G followed by G2S of each demoted gauge must return to a valid code
// with exactly the same stabilizer group, the same qubit sets, and no
// leftover gauge operators.
func TestS2GG2SRoundTripProperty(t *testing.T) {
	for _, d := range []int{3, 5} {
		pristine := code.FromPatch(lattice.NewPatch(lattice.Coord{}, d))
		if err := pristine.Validate(); err != nil {
			t.Fatal(err)
		}
		applied := 0
		for _, q := range pristine.DataQubits() {
			for _, op := range []pauli.Op{pauli.X(q), pauli.Z(q)} {
				c := pristine.Clone()
				if !roundTrip(t, c, op, q) {
					// S2G's preconditions reject qubits the logical
					// representatives cross; the law is only claimed
					// where the operation applies.
					continue
				}
				applied++
				if err := c.Validate(); err != nil {
					t.Errorf("d=%d %v at %v: round trip left invalid code: %v", d, op, q, err)
					continue
				}
				if len(c.Gauges()) != 0 {
					t.Errorf("d=%d %v at %v: %d gauges survive the round trip", d, op, q, len(c.Gauges()))
				}
				if !sameStabGroup(t, pristine, c) {
					t.Errorf("d=%d %v at %v: stabilizer group changed", d, op, q)
				}
				if c.NumData() != pristine.NumData() || c.NumSyndrome() != pristine.NumSyndrome() {
					t.Errorf("d=%d %v at %v: qubit sets changed", d, op, q)
				}
			}
		}
		if applied == 0 {
			t.Errorf("d=%d: S2G applied nowhere; property vacuous", d)
		}
	}
}

// FuzzS2GG2SScript drives short S2G→G2S scripts at fuzzer-chosen sites:
// whatever the site, the code must end valid with the original stabilizer
// group whenever the script ran to completion.
func FuzzS2GG2SScript(f *testing.F) {
	f.Add(int16(3), int16(3), true)
	f.Add(int16(1), int16(1), false)
	f.Add(int16(5), int16(1), true)
	f.Add(int16(1), int16(5), false)
	f.Add(int16(-3), int16(9), true)
	f.Fuzz(func(t *testing.T, row, col int16, useX bool) {
		pristine := code.FromPatch(lattice.NewPatch(lattice.Coord{}, 3))
		c := pristine.Clone()
		q := lattice.Coord{Row: int(row), Col: int(col)}
		op := pauli.Z(q)
		if useX {
			op = pauli.X(q)
		}
		if !roundTrip(t, c, op, q) {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%v at %v: %v", op, q, err)
		}
		if !sameStabGroup(t, pristine, c) {
			t.Fatalf("%v at %v: stabilizer group changed", op, q)
		}
	})
}
