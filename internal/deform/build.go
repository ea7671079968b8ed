package deform

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"surfdeformer/internal/code"
	"surfdeformer/internal/gf2"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/pauli"
)

// Compile metrics: every spec compiled in the process counts here with its
// wall-clock cost. Compile time is observation-only and never flows into
// results.
var (
	obsSpecBuilds  = obs.Default().Counter("deform.spec_builds")
	obsSpecBuildNs = obs.Default().Histogram("deform.spec_build_ns")
)

// Build compiles the spec into a concrete code.
//
// The algebraic procedure:
//
//  1. Restrict every check of the bounding rectangle to the surviving data
//     set. Checks whose syndrome qubit was removed are replaced by weight-1
//     direct measurement candidates on their surviving support (fig. 6b).
//  2. Apply boundary fixes: freezing the single-qubit operator of type T on
//     a removed site merges the broken opposite-type checks that contained
//     it into a single product candidate (fig. 6c / fig. 8).
//  3. Partition: a candidate that commutes with every other candidate is a
//     stabilizer; the rest are gauge operators (this reproduces the paper's
//     S2G demotions).
//  4. Recover super-stabilizers: products of gauge candidates lying in the
//     center of the measured group are found as the nullspace of the
//     anti-commutation Gram matrix and recorded as super-stabilizers with
//     explicit member lists (fig. 6a's s1s2/g1g2, fig. 6b's octagon).
//  5. Re-derive minimum-weight logical representatives from the deformed
//     stabilizer structure and repair them against the gauge operators.
//
// Every candidate is CSS, so steps 1–4 run on support bitsets over one data
// index, the position in the rectangle's row-major data grid: two
// candidates anti-commute exactly when they differ in type and share an odd
// number of qubits. The same reduction that filters super-stabilizers gives
// k: with the gauge rows added it holds the rank r of the measured group,
// and the gauge Gram matrix has rank 2l (the commuting stabilizers add
// nothing to it), so k = n − r + l, what Params would compute afresh.
//
// The result is validated structurally; callers requiring the full
// (expensive) invariant check should call Validate on the result. Every
// call compiles afresh and returns a new code the caller owns; callers that
// need only the distances use Distances.
func (s *Spec) Build() (*code.Code, error) {
	obsSpecBuilds.Inc()
	start := time.Now()
	defer func() { obsSpecBuildNs.Observe(time.Since(start).Nanoseconds()) }()
	g := dataGrid{origin: s.Origin, dx: s.DX, dz: s.DZ}
	w := (s.DX*s.DZ + 63) / 64
	// The arena holds every support set, w words each; candidates refer to
	// theirs by offset, so it may grow.
	arena := make([]uint64, 0, (2*(s.DX+1)*(s.DZ+1)+8)*w)
	slot := func() int {
		n := len(arena)
		arena = slices.Grow(arena, w)[:n+w]
		clear(arena[n:])
		return n
	}
	set := func(off int) []uint64 { return arena[off : off+w] }

	data := slot()
	for i := 0; i < s.DX*s.DZ; i++ {
		setBit(set(data), i)
	}
	for q, removed := range s.RemovedData {
		if i, ok := g.index(q); ok && removed {
			clearBit(set(data), i)
		}
	}
	if isZero(set(data)) {
		return nil, fmt.Errorf("deform: all data qubits removed")
	}

	cands := make([]cand, 0, (s.DX+1)*(s.DZ+1))
	g.forEachCheck(func(center lattice.Coord, typ lattice.CheckType, qs []int) {
		orig := slot()
		for _, i := range qs {
			setBit(set(orig), i)
		}
		if s.RemovedSyndrome[center] {
			// SyndromeQRM: the check is inferred from weight-1 direct
			// measurements of the surviving support qubits.
			for _, i := range qs {
				if getBit(set(data), i) {
					supp := slot()
					setBit(set(supp), i)
					cands = append(cands, cand{supp: supp, orig: orig, typ: typ, ancilla: g.coord(i), direct: true})
				}
			}
			return
		}
		supp := slot()
		andInto(set(supp), set(orig), set(data))
		if !isZero(set(supp)) {
			cands = append(cands, cand{supp: supp, orig: orig, typ: typ, ancilla: center})
		}
	})

	// Boundary fixes (PatchQRM): freezing the single-qubit operator of type
	// T on q demotes the opposite-type checks containing q and merges them
	// into one product candidate (the paper's G2G folding inside G2S). The
	// merged remnant is kept only if it commutes with the rest of the code;
	// otherwise it is the operator G2S sacrifices, and it is dropped below.
	fixCoords := make([]lattice.Coord, 0, len(s.Fixes))
	for q := range s.Fixes {
		fixCoords = append(fixCoords, q)
	}
	lattice.SortCoords(fixCoords)
	for _, q := range fixCoords {
		brokenType := s.Fixes[q].Opposite()
		qi, inGrid := g.index(q)
		merged := cand{typ: brokenType, fromFix: true}
		found := false
		out := cands[:0]
		for _, cd := range cands {
			if inGrid && cd.typ == brokenType && !cd.direct && getBit(set(cd.orig), qi) {
				if !found {
					merged.ancilla = cd.ancilla
					merged.supp, merged.orig = slot(), slot()
					found = true
				}
				xorInto(set(merged.supp), set(cd.supp))
				orInto(set(merged.orig), set(cd.orig))
				continue
			}
			out = append(out, cd)
		}
		cands = out
		if found && !isZero(set(merged.supp)) {
			cands = append(cands, merged)
		}
	}

	// Partition into stabilizers and gauges; fix-merged remnants that still
	// anti-commute with the surviving code are sacrificed (the G2S step of
	// PatchQRM) and the partition repeats until stable.
	for {
		for i := range cands {
			cands[i].gauge = false
		}
		for i := range cands {
			for j := i + 1; j < len(cands); j++ {
				if cands[i].typ != cands[j].typ && oddOverlap(set(cands[i].supp), set(cands[j].supp)) {
					cands[i].gauge = true
					cands[j].gauge = true
				}
			}
		}
		out := cands[:0]
		for _, cd := range cands {
			if !(cd.fromFix && cd.gauge) {
				out = append(out, cd)
			}
		}
		dropped := len(out) < len(cands)
		cands = out
		if !dropped {
			break
		}
	}

	// Prune data qubits covered by no candidate: they are disconnected from
	// the code and would inflate k. Weight-1 plain stabilizers freeze their
	// qubit: the frozen qubit leaves the code and the check disappears with
	// it (the cascade of a boundary cut consuming an orphaned site).
	covered := slot()
	for {
		clear(set(covered))
		for _, cd := range cands {
			if !cd.gauge && !cd.direct && weight(set(cd.supp)) == 1 {
				continue // frozen site: treated as uncovered below
			}
			orInto(set(covered), set(cd.supp))
		}
		if !andInto(set(data), set(data), set(covered)) {
			break
		}
		// Re-restrict candidates and drop the ones that vanished.
		out := cands[:0]
		for _, cd := range cands {
			if andInto(set(cd.supp), set(cd.supp), set(data)); !isZero(set(cd.supp)) {
				out = append(out, cd)
			}
		}
		cands = out
	}

	// Assemble the code object.
	nq := weight(set(data))
	dataList := g.coords(make([]lattice.Coord, 0, nq), set(data))
	var synList []lattice.Coord
	for _, cd := range cands {
		if !cd.direct {
			synList = append(synList, cd.ancilla)
		}
	}
	lattice.SortCoords(synList)
	synList = slices.Compact(synList)
	var gauges []int // candidate index per gauge, aligned with gaugeIDs
	for i, cd := range cands {
		if cd.gauge {
			gauges = append(gauges, i)
		}
	}

	// Recover super-stabilizers from the gauge Gram nullspace, filtered by
	// independence from the stabilizers over symplectic rows [x-part |
	// z-part]; the gauge rows then complete the measured group's rank.
	red := reducer{w: 2 * w}
	vec := make([]uint64, 2*w)
	symplectic := func(typ lattice.CheckType, supp []uint64) []uint64 {
		clear(vec)
		if typ == lattice.XCheck {
			copy(vec[:w], supp)
		} else {
			copy(vec[w:], supp)
		}
		return vec
	}
	for _, cd := range cands {
		if !cd.gauge {
			red.add(symplectic(cd.typ, set(cd.supp)))
		}
	}
	m := len(gauges)
	gram := gf2.NewMatrix(m, m)
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			ca, cb := cands[gauges[a]], cands[gauges[b]]
			if ca.typ != cb.typ && oddOverlap(set(ca.supp), set(cb.supp)) {
				gram.Set(a, b, true)
				gram.Set(b, a, true)
			}
		}
	}
	null := gram.Nullspace()

	// The code holds every candidate, as a gauge or a stabilizer, and at
	// most one super-stabilizer per nullspace vector, so its lists never
	// regrow.
	c := code.New(dataList, synList)
	c.Reserve(len(cands)-m+len(null), m)
	scratch := make([]lattice.Coord, 0, nq)
	gaugeIDs := make([]int, 0, m)
	for _, cd := range cands {
		op := g.op(scratch, cd.typ, set(cd.supp))
		if cd.gauge {
			gaugeIDs = append(gaugeIDs, c.AddGauge(op, cd.ancilla, cd.direct))
		} else if cd.direct {
			c.AddDirectStab(op)
		} else {
			c.AddStab(op, cd.ancilla)
		}
	}
	var members []int
	for _, v := range null {
		members = members[:0]
		clear(vec)
		for _, a := range v.Indices() {
			members = append(members, gaugeIDs[a])
			cd := cands[gauges[a]]
			if cd.typ == lattice.XCheck {
				xorInto(vec[:w], set(cd.supp))
			} else {
				xorInto(vec[w:], set(cd.supp))
			}
		}
		if isZero(vec) {
			continue
		}
		if !red.add(vec) {
			continue // dependent on existing stabilizers
		}
		// code.New copied the data list, so its storage is free for the Z part.
		prod := pauli.FromSupports(g.coords(scratch, vec[:w]), g.coords(dataList[:0], vec[w:]))
		c.AddSuperStab(prod, members)
	}
	for _, a := range gauges {
		red.add(symplectic(cands[a].typ, set(cands[a].supp)))
	}
	// The Gram matrix is alternating (symmetric, zero diagonal), so its
	// rank m − nullity is even: it is 2l.
	k := nq - red.rank() + (m-len(null))/2

	if err := c.RefreshLogicals(); err != nil {
		return nil, fmt.Errorf("deform: %w", err)
	}
	if k != 1 {
		return nil, fmt.Errorf("deform: deformed code encodes k=%d logical qubits; defect pattern breaks the patch", k)
	}
	return c, nil
}

// cand is one measured-operator candidate: a CSS operator of type typ on
// the support set at arena offset supp, and the support its source check
// had before restriction at offset orig (a fix-merged remnant's is the
// union of its sources').
type cand struct {
	supp, orig int
	typ        lattice.CheckType
	ancilla    lattice.Coord
	direct     bool // weight-1 direct data measurement
	fromFix    bool // merged remnant created by a boundary fix
	gauge      bool // anti-commutes with another candidate
}

// dataGrid is the data index of a spec's bounding rectangle: data qubit
// (origin.Row+2i+1, origin.Col+2j+1) has index i·dx + j, so ascending
// indices are the row-major coordinate order.
type dataGrid struct {
	origin lattice.Coord
	dx, dz int
}

// index returns q's position in the grid, or ok=false off it.
func (g dataGrid) index(q lattice.Coord) (int, bool) {
	r, c := q.Row-g.origin.Row-1, q.Col-g.origin.Col-1
	if r < 0 || c < 0 || r%2 != 0 || c%2 != 0 || r/2 >= g.dz || c/2 >= g.dx {
		return 0, false
	}
	return r/2*g.dx + c/2, true
}

// coord returns the data qubit at grid index i.
func (g dataGrid) coord(i int) lattice.Coord {
	return lattice.Coord{Row: g.origin.Row + 2*(i/g.dx) + 1, Col: g.origin.Col + 2*(i%g.dx) + 1}
}

// coords appends the coordinates of the set's members to dst, ascending.
func (g dataGrid) coords(dst []lattice.Coord, set []uint64) []lattice.Coord {
	for wi, x := range set {
		for x != 0 {
			dst = append(dst, g.coord(wi*64+bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	return dst
}

// op returns the type-T operator on the set, listing its coordinates in
// scratch first.
func (g dataGrid) op(scratch []lattice.Coord, typ lattice.CheckType, set []uint64) pauli.Op {
	qs := g.coords(scratch[:0], set)
	if typ == lattice.XCheck {
		return pauli.X(qs...)
	}
	return pauli.Z(qs...)
}

// forEachCheck calls fn for every check of the rectangle with its centre,
// its type and its support as grid indices, ascending. It enumerates as
// lattice.NewRectPatch does, without building the patch: centres (2i, 2j)
// from the origin row by row, a checkerboard of Z checks where i+j is even,
// each touching the diagonal data neighbours inside the rectangle; a centre
// with fewer than two is no check, and a two-qubit check stays only as an X
// check on the top or bottom edge or a Z check on the left or right edge,
// never on a corner. TestDataGridChecksMatchLattice pins the two to each
// other.
func (g dataGrid) forEachCheck(fn func(center lattice.Coord, typ lattice.CheckType, qs []int)) {
	var buf [4]int
	for i := 0; i <= g.dz; i++ {
		for j := 0; j <= g.dx; j++ {
			qs := buf[:0]
			for r := i - 1; r <= i; r++ {
				for c := j - 1; c <= j; c++ {
					if r >= 0 && r < g.dz && c >= 0 && c < g.dx {
						qs = append(qs, r*g.dx+c)
					}
				}
			}
			if len(qs) < 2 {
				continue
			}
			typ := lattice.ZCheck
			if (i+j)%2 == 1 {
				typ = lattice.XCheck
			}
			topBottom, leftRight := i == 0 || i == g.dz, j == 0 || j == g.dx
			if len(qs) == 2 && (topBottom && typ != lattice.XCheck || leftRight && typ != lattice.ZCheck || topBottom && leftRight) {
				continue
			}
			fn(lattice.Coord{Row: g.origin.Row + 2*i, Col: g.origin.Col + 2*j}, typ, qs)
		}
	}
}

// reducer maintains a GF(2) echelon basis supporting independence-tested
// insertion: every row has a pivot column, and a row is zero at the pivots
// of the rows before it.
type reducer struct {
	w     int
	rows  []uint64
	pivot []int
	tmp   []uint64
}

// add reduces v against the basis; if a non-zero remainder survives it is
// added to the basis and add reports true. A zero remainder (dependent
// vector) reports false. v is not modified.
func (r *reducer) add(v []uint64) bool {
	r.tmp = append(r.tmp[:0], v...)
	for k, p := range r.pivot {
		if getBit(r.tmp, p) {
			xorInto(r.tmp, r.rows[k*r.w:(k+1)*r.w])
		}
	}
	p := lowestBit(r.tmp)
	if p < 0 {
		return false
	}
	r.rows = append(r.rows, r.tmp...)
	r.pivot = append(r.pivot, p)
	return true
}

// rank returns the number of basis rows.
func (r *reducer) rank() int { return len(r.pivot) }

func getBit(v []uint64, i int) bool { return v[i/64]>>(i%64)&1 == 1 }

func setBit(v []uint64, i int) { v[i/64] |= 1 << (i % 64) }

func clearBit(v []uint64, i int) { v[i/64] &^= 1 << (i % 64) }

func isZero(v []uint64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

func weight(v []uint64) int {
	n := 0
	for _, x := range v {
		n += bits.OnesCount64(x)
	}
	return n
}

func lowestBit(v []uint64) int {
	for i, x := range v {
		if x != 0 {
			return i*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// oddOverlap reports whether two sets share an odd number of members.
func oddOverlap(a, b []uint64) bool {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i])
	}
	return n%2 == 1
}

func xorInto(dst, src []uint64) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

func orInto(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

// andInto sets dst = a & b and reports whether dst changed.
func andInto(dst, a, b []uint64) bool {
	changed := false
	for i := range dst {
		x := a[i] & b[i]
		changed = changed || x != dst[i]
		dst[i] = x
	}
	return changed
}
