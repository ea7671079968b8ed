// Package lattice provides the 2-D integer geometry underlying surface code
// patches: qubit coordinates, the rotated-surface-code construction, and
// neighbourhood/boundary helpers used by the deformation layer.
//
// Convention (matching the usual rotated surface code drawing):
//
//   - Data qubits sit at odd×odd coordinates (2i+1, 2j+1), i,j ∈ [0,d).
//   - Check (syndrome) qubits sit at even×even plaquette centres (2i, 2j),
//     i,j ∈ [0,d]; each acts on the ≤4 diagonal data neighbours.
//   - Plaquette type alternates in a checkerboard; X-type half-plaquettes
//     line the top and bottom boundaries, Z-type half-plaquettes the left
//     and right. Consequently the logical X operator is a vertical string
//     (top↔bottom) and the logical Z operator a horizontal string
//     (left↔right).
package lattice

import (
	"cmp"
	"fmt"
	"slices"
)

// Coord is a position on the 2-D lattice. Row grows downward, Col rightward.
type Coord struct {
	Row, Col int
}

// String renders the coordinate as "(r,c)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.Row, c.Col) }

// Add returns c translated by d.
func (c Coord) Add(d Coord) Coord { return Coord{c.Row + d.Row, c.Col + d.Col} }

// Less orders coordinates row-major; it is the canonical sort order used for
// operator supports.
func (c Coord) Less(d Coord) bool {
	if c.Row != d.Row {
		return c.Row < d.Row
	}
	return c.Col < d.Col
}

// DiagNeighbors returns the four diagonal neighbours of c, the adjacency
// between check centres and data qubits in the rotated layout.
func (c Coord) DiagNeighbors() [4]Coord {
	return [4]Coord{
		{c.Row - 1, c.Col - 1},
		{c.Row - 1, c.Col + 1},
		{c.Row + 1, c.Col - 1},
		{c.Row + 1, c.Col + 1},
	}
}

// IsData reports whether c is a data-qubit position (odd row, odd col).
func (c Coord) IsData() bool { return abs(c.Row)%2 == 1 && abs(c.Col)%2 == 1 }

// IsCheck reports whether c is a check-qubit position (even row, even col).
func (c Coord) IsCheck() bool { return c.Row%2 == 0 && c.Col%2 == 0 }

// Chebyshev returns the Chebyshev (L∞) distance between a and b, the natural
// metric for defect regions ("the adjacent 24 qubits" = Chebyshev ball of
// radius 2).
func Chebyshev(a, b Coord) int {
	dr, dc := abs(a.Row-b.Row), abs(a.Col-b.Col)
	if dr > dc {
		return dr
	}
	return dc
}

// Manhattan returns |Δrow| + |Δcol|.
func Manhattan(a, b Coord) int { return abs(a.Row-b.Row) + abs(a.Col-b.Col) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Compare orders coordinates row-major, like Less, as a three-way result
// for slices.SortFunc and slices.BinarySearchFunc.
func (c Coord) Compare(d Coord) int {
	if r := cmp.Compare(c.Row, d.Row); r != 0 {
		return r
	}
	return cmp.Compare(c.Col, d.Col)
}

// SortCoords sorts a coordinate slice in row-major order (Coord.Less).
func SortCoords(cs []Coord) {
	slices.SortFunc(cs, Coord.Compare)
}

// CheckType distinguishes the two stabilizer flavours.
type CheckType uint8

const (
	// XCheck detects Z errors (a product of Pauli X on its support).
	XCheck CheckType = iota
	// ZCheck detects X errors (a product of Pauli Z on its support).
	ZCheck
)

// String implements fmt.Stringer.
func (t CheckType) String() string {
	if t == XCheck {
		return "X"
	}
	return "Z"
}

// Opposite returns the other check type.
func (t CheckType) Opposite() CheckType {
	if t == XCheck {
		return ZCheck
	}
	return XCheck
}

// Side labels the four boundaries of a patch.
type Side uint8

const (
	Top Side = iota
	Bottom
	Left
	Right
)

// String implements fmt.Stringer.
func (s Side) String() string {
	switch s {
	case Top:
		return "top"
	case Bottom:
		return "bottom"
	case Left:
		return "left"
	case Right:
		return "right"
	}
	return "invalid"
}

// Check describes one plaquette of a patch: its centre (the syndrome qubit
// position) and the data qubits it acts on.
type Check struct {
	Center  Coord
	Type    CheckType
	Support []Coord // sorted row-major
}

// Patch is the geometry of a freshly constructed rectangular rotated surface
// code: dX columns × dZ rows of data qubits. (Square patches have dX == dZ
// == d.) The patch is anchored so its top-left data qubit is at
// Origin.Add({1,1}).
type Patch struct {
	Origin Coord // top-left corner of the bounding box (even coords)
	DX     int   // data-qubit columns: length of the horizontal (Z) logical
	DZ     int   // data-qubit rows: length of the vertical (X) logical

	Data   []Coord // sorted
	Checks []Check

	// LogicalX is a vertical column of X's connecting top to bottom.
	// LogicalZ is a horizontal row of Z's connecting left to right.
	LogicalX []Coord
	LogicalZ []Coord
}

// NewPatch constructs a distance-d square rotated surface code anchored at
// origin (which must have even row and column).
func NewPatch(origin Coord, d int) *Patch {
	return NewRectPatch(origin, d, d)
}

// NewRectPatch constructs a rectangular rotated surface code with dx data
// columns and dz data rows. The X distance is dz (vertical), the Z distance
// dx (horizontal).
func NewRectPatch(origin Coord, dx, dz int) *Patch {
	if dx < 1 || dz < 1 {
		panic(fmt.Sprintf("lattice: invalid patch dimensions %dx%d", dx, dz))
	}
	if origin.Row%2 != 0 || origin.Col%2 != 0 {
		panic(fmt.Sprintf("lattice: patch origin %v must be even-even", origin))
	}
	p := &Patch{Origin: origin, DX: dx, DZ: dz}
	inPatch := make(map[Coord]bool, dx*dz)
	for i := 0; i < dz; i++ {
		for j := 0; j < dx; j++ {
			c := Coord{origin.Row + 2*i + 1, origin.Col + 2*j + 1}
			p.Data = append(p.Data, c)
			inPatch[c] = true
		}
	}
	for i := 0; i <= dz; i++ {
		for j := 0; j <= dx; j++ {
			center := Coord{origin.Row + 2*i, origin.Col + 2*j}
			var supp []Coord
			for _, n := range center.DiagNeighbors() {
				if inPatch[n] {
					supp = append(supp, n)
				}
			}
			if len(supp) < 2 {
				continue // corners and empty positions carry no check
			}
			typ := plaquetteType(i, j)
			if len(supp) == 2 {
				// Boundary half-plaquettes: X on top/bottom, Z on left/right.
				onTopBottom := i == 0 || i == dz
				onLeftRight := j == 0 || j == dx
				if onTopBottom && typ != XCheck {
					continue
				}
				if onLeftRight && typ != ZCheck {
					continue
				}
				if onTopBottom && onLeftRight {
					continue // degenerate 1xN corners handled above by len check
				}
			}
			SortCoords(supp)
			p.Checks = append(p.Checks, Check{Center: center, Type: typ, Support: supp})
		}
	}
	// Logical X: leftmost column of data qubits, top to bottom.
	for i := 0; i < dz; i++ {
		p.LogicalX = append(p.LogicalX, Coord{origin.Row + 2*i + 1, origin.Col + 1})
	}
	// Logical Z: top row of data qubits, left to right.
	for j := 0; j < dx; j++ {
		p.LogicalZ = append(p.LogicalZ, Coord{origin.Row + 1, origin.Col + 2*j + 1})
	}
	return p
}

// plaquetteType fixes the checkerboard colouring. With this choice the
// half-plaquettes at i==0 (top) rows alternate and the X-coloured ones are
// kept, matching the package convention.
func plaquetteType(i, j int) CheckType {
	if (i+j)%2 == 0 {
		return ZCheck
	}
	return XCheck
}

// Bounds returns the inclusive coordinate bounding box of the patch.
func (p *Patch) Bounds() (min, max Coord) {
	min = p.Origin
	max = Coord{p.Origin.Row + 2*p.DZ, p.Origin.Col + 2*p.DX}
	return min, max
}

// SideOf classifies which boundary of the patch the coordinate is nearest
// to, used when deciding how a boundary defect should be cut out. Interior
// coordinates return ok=false.
func (p *Patch) SideOf(c Coord) (Side, bool) {
	min, max := p.Bounds()
	dTop := c.Row - min.Row
	dBottom := max.Row - c.Row
	dLeft := c.Col - min.Col
	dRight := max.Col - c.Col
	best, side := dTop, Top
	if dBottom < best {
		best, side = dBottom, Bottom
	}
	if dLeft < best {
		best, side = dLeft, Left
	}
	if dRight < best {
		best, side = dRight, Right
	}
	if best > 2 {
		return side, false
	}
	return side, true
}

// CheckAt returns the check whose centre is c, if any.
func (p *Patch) CheckAt(c Coord) (Check, bool) {
	for _, ch := range p.Checks {
		if ch.Center == c {
			return ch, true
		}
	}
	return Check{}, false
}

// NumQubits returns the total physical qubit count of the patch: data qubits
// plus one syndrome qubit per check.
func (p *Patch) NumQubits() int { return len(p.Data) + len(p.Checks) }
