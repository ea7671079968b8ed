package code_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/pauli"
)

// refFingerprint is the text serialization Code.Fingerprint wrote before
// it became binary: the oracle whose equality the binary encoding must
// reproduce exactly.
func refFingerprint(c *code.Code) string {
	var sb strings.Builder
	sb.WriteString("D:")
	for _, q := range c.DataQubits() {
		fmt.Fprintf(&sb, "%d.%d,", q.Row, q.Col)
	}
	sb.WriteString("S:")
	for _, q := range c.SyndromeQubits() {
		fmt.Fprintf(&sb, "%d.%d,", q.Row, q.Col)
	}
	sb.WriteString("stabs:")
	for _, s := range c.Stabs() {
		fmt.Fprintf(&sb, "{%s@%d.%d/%v/%v}", s.Op.String(), s.Ancilla.Row, s.Ancilla.Col, s.Direct, s.MemberIDs)
	}
	sb.WriteString("gauges:")
	for _, g := range c.Gauges() {
		fmt.Fprintf(&sb, "{%s@%d.%d/%v}", g.Op.String(), g.Ancilla.Row, g.Ancilla.Col, g.Direct)
	}
	lx, lz := c.LogicalX(), c.LogicalZ()
	fmt.Fprintf(&sb, "LX:%s,LZ:%s", lx.String(), lz.String())
	return sb.String()
}

// fingerprintCorpus returns pristine, bandaged, hand-deformed and random
// unit-history codes, with repeats: rebuilt pristine patches, clones, and
// recoveries back to an earlier shape.
func fingerprintCorpus(t *testing.T) []*code.Code {
	t.Helper()
	patch := func(d int, origin lattice.Coord) *code.Code {
		return code.FromPatch(lattice.NewPatch(origin, d))
	}
	var out []*code.Code
	for _, d := range []int{3, 5} {
		out = append(out, patch(d, lattice.Coord{}), patch(d, lattice.Coord{}))
	}
	out = append(out, patch(3, lattice.Coord{Row: 2, Col: 4}), patch(3, lattice.Coord{Row: -4, Col: -2}))
	for _, nc := range memoCodes(t) {
		out = append(out, nc.c, nc.c.Clone())
	}

	// Hand deformations, each a small edit of a fresh d=3 patch.
	edits := []func(c *code.Code){
		func(c *code.Code) { must(t, c.AddDataQubit(lattice.Coord{Row: 11, Col: 1})) },
		func(c *code.Code) { must(t, c.AddDataQubit(lattice.Coord{Row: 1, Col: 11})) },
		func(c *code.Code) { must(t, c.AddSyndromeQubit(lattice.Coord{Row: -2, Col: 0})) },
		func(c *code.Code) {
			s := c.Stabs()[0]
			mustTrue(t, c.ReplaceStabOp(s.ID, pauli.FromSupports(s.Op.ZSupport(), s.Op.XSupport())))
		},
		func(c *code.Code) {
			// Remove and re-add the same stabilizer: a new ID, a new
			// position in the list.
			s := c.Stabs()[0]
			mustTrue(t, c.RemoveStab(s.ID))
			c.AddStab(s.Op, s.Ancilla)
		},
		func(c *code.Code) {
			// Remove and re-add the last stabilizer: only its ID changes,
			// which neither encoding records.
			s := c.Stabs()[len(c.Stabs())-1]
			mustTrue(t, c.RemoveStab(s.ID))
			c.AddStab(s.Op, s.Ancilla)
		},
		func(c *code.Code) { c.AddDirectStab(pauli.Z(c.DataQubits()[0])) },
		func(c *code.Code) { c.AddGauge(pauli.X(c.DataQubits()[1]), c.DataQubits()[1], true) },
		func(c *code.Code) { c.AddGauge(pauli.X(c.DataQubits()[1]), c.DataQubits()[1], false) },
		func(c *code.Code) { c.AddSuperStab(pauli.Z(c.DataQubits()[2]), []int{1, 2}) },
		func(c *code.Code) { c.AddSuperStab(pauli.Z(c.DataQubits()[2]), []int{12}) },
		func(c *code.Code) { c.AddSuperStab(pauli.Z(c.DataQubits()[2]), []int{2, 1}) },
		func(c *code.Code) { c.SetLogicalX(pauli.Y(c.LogicalX().XSupport()...)) },
		func(c *code.Code) { c.SetLogicalZ(pauli.Z()) },
	}
	for _, edit := range edits {
		c := patch(3, lattice.Coord{})
		edit(c)
		out = append(out, c)
	}

	// Random unit histories: steps and recoveries of random defect sets,
	// keeping every code the unit compiles.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		u := deform.NewUnit(lattice.Coord{}, 5, 5, deform.PolicySurfDeformer, deform.UniformBudget(2))
		var hit []lattice.Coord
		for step := 0; step < 4; step++ {
			var st *deform.StepResult
			var err error
			if len(hit) > 0 && rng.Intn(3) == 0 {
				st, err = u.Recover(hit)
				hit = nil
			} else {
				min, max := u.Spec().Bounds()
				q := lattice.Coord{Row: min.Row + rng.Intn(max.Row-min.Row+1), Col: min.Col + rng.Intn(max.Col-min.Col+1)}
				if !q.IsData() && !q.IsCheck() {
					continue
				}
				hit = append(hit, q)
				st, err = u.Step([]lattice.Coord{q})
			}
			if err != nil {
				break
			}
			out = append(out, st.Code)
		}
	}
	return out
}

// TestFingerprintMatchesTextOracle requires two codes to share a binary
// fingerprint exactly when they share the text oracle's.
func TestFingerprintMatchesTextOracle(t *testing.T) {
	codes := fingerprintCorpus(t)
	text := make([]string, len(codes))
	for i, c := range codes {
		text[i] = refFingerprint(c)
	}
	equalPairs := 0
	for i := range codes {
		for j := i + 1; j < len(codes); j++ {
			sameBin := codes[i].Fingerprint() == codes[j].Fingerprint()
			sameText := text[i] == text[j]
			if sameBin != sameText {
				t.Fatalf("codes %d and %d: equal binary fingerprints %v, equal text %v\n%s\n%s",
					i, j, sameBin, sameText, text[i], text[j])
			}
			if sameText {
				equalPairs++
			}
		}
	}
	if equalPairs < 6 {
		t.Errorf("only %d equal pairs among %d codes: the corpus barely tests equality", equalPairs, len(codes))
	}
}
