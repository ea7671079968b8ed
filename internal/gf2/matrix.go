// Package gf2 implements dense linear algebra over GF(2).
//
// Matrices are stored row-major as slices of 64-bit words. The package
// provides the primitives the code layer needs: rank computation, row
// reduction, solving linear systems and nullspace bases. All operations are
// deterministic and allocate copies rather than mutating their inputs unless
// the method name says otherwise.
package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vec is a bit vector over GF(2), packed little-endian into 64-bit words.
type Vec struct {
	n     int
	words []uint64
}

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec {
	if n < 0 {
		panic("gf2: negative vector length")
	}
	return Vec{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the vector length in bits.
func (v Vec) Len() int { return v.n }

// Get reports the bit at index i.
func (v Vec) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("gf2: index %d out of range [0,%d)", i, v.n))
	}
	return v.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set assigns the bit at index i.
func (v Vec) Set(i int, b bool) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("gf2: index %d out of range [0,%d)", i, v.n))
	}
	if b {
		v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Xor sets v ^= u. The lengths must match.
func (v Vec) Xor(u Vec) {
	if v.n != u.n {
		panic("gf2: length mismatch in Xor")
	}
	for i := range v.words {
		v.words[i] ^= u.words[i]
	}
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	w := Vec{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Indices returns the positions of set bits in ascending order.
func (v Vec) Indices() []int {
	var idx []int
	for wi, word := range v.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			idx = append(idx, wi*wordBits+b)
			word &= word - 1
		}
	}
	return idx
}

// String renders v as a bit string, most significant index last.
func (v Vec) String() string {
	var sb strings.Builder
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Matrix is a dense GF(2) matrix with rows stored as Vecs.
type Matrix struct {
	rows int
	cols int
	data []Vec
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("gf2: negative matrix dimension")
	}
	m := &Matrix{rows: rows, cols: cols, data: make([]Vec, rows)}
	for i := range m.data {
		m.data[i] = NewVec(cols)
	}
	return m
}

// Set assigns the bit at (r, c).
func (m *Matrix) Set(r, c int, b bool) { m.data[r].Set(c, b) }

// AppendRow adds a copy of v as a new bottom row.
func (m *Matrix) AppendRow(v Vec) {
	if m.rows == 0 && m.cols == 0 {
		m.cols = v.Len()
	}
	if v.Len() != m.cols {
		panic("gf2: row length mismatch in AppendRow")
	}
	m.data = append(m.data, v.Clone())
	m.rows++
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, data: make([]Vec, m.rows)}
	for i, r := range m.data {
		c.data[i] = r.Clone()
	}
	return c
}

// Rank returns the rank of m over GF(2).
func (m *Matrix) Rank() int {
	c := m.Clone()
	return c.rowReduceInPlace(nil)
}

// rowReduceInPlace transforms the matrix to row echelon form, returning the
// rank. If pivots is non-nil it is filled with the pivot column of each of
// the first rank rows.
func (m *Matrix) rowReduceInPlace(pivots *[]int) int {
	rank := 0
	for col := 0; col < m.cols && rank < m.rows; col++ {
		pivot := -1
		for r := rank; r < m.rows; r++ {
			if m.data[r].Get(col) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m.data[rank], m.data[pivot] = m.data[pivot], m.data[rank]
		for r := 0; r < m.rows; r++ {
			if r != rank && m.data[r].Get(col) {
				m.data[r].Xor(m.data[rank])
			}
		}
		if pivots != nil {
			*pivots = append(*pivots, col)
		}
		rank++
	}
	return rank
}

// RowReduce returns the reduced row echelon form of m, its rank, and the
// pivot columns.
func (m *Matrix) RowReduce() (rref *Matrix, rank int, pivots []int) {
	rref = m.Clone()
	rank = rref.rowReduceInPlace(&pivots)
	return rref, rank, pivots
}

// Solve finds x with xᵀ·m = v, i.e. expresses v as a combination of the rows
// of m. It returns the combination indicator over rows and ok=false when v is
// outside the row span.
func (m *Matrix) Solve(v Vec) (combo Vec, ok bool) {
	if v.Len() != m.cols {
		panic("gf2: length mismatch in Solve")
	}
	// Augment each row with an identity tag tracking combinations.
	work := make([]Vec, m.rows)
	for i, r := range m.data {
		w := NewVec(m.cols + m.rows)
		for _, c := range r.Indices() {
			w.Set(c, true)
		}
		w.Set(m.cols+i, true)
		work[i] = w
	}
	target := NewVec(m.cols + m.rows)
	for _, c := range v.Indices() {
		target.Set(c, true)
	}
	rank := 0
	for col := 0; col < m.cols && rank < len(work); col++ {
		pivot := -1
		for r := rank; r < len(work); r++ {
			if work[r].Get(col) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		work[rank], work[pivot] = work[pivot], work[rank]
		for r := range work {
			if r != rank && work[r].Get(col) {
				work[r].Xor(work[rank])
			}
		}
		if target.Get(col) {
			target.Xor(work[rank])
		}
		rank++
	}
	for c := 0; c < m.cols; c++ {
		if target.Get(c) {
			return Vec{}, false
		}
	}
	combo = NewVec(m.rows)
	for i := 0; i < m.rows; i++ {
		if target.Get(m.cols + i) {
			combo.Set(i, true)
		}
	}
	return combo, true
}

// Nullspace returns a basis of {x : m·x = 0} as row vectors of length Cols.
func (m *Matrix) Nullspace() []Vec {
	rref, rank, pivots := m.RowReduce()
	isPivot := make([]bool, m.cols)
	for _, p := range pivots {
		isPivot[p] = true
	}
	var basis []Vec
	for c := 0; c < m.cols; c++ {
		if isPivot[c] {
			continue
		}
		v := NewVec(m.cols)
		v.Set(c, true)
		for r := 0; r < rank; r++ {
			if rref.data[r].Get(c) {
				v.Set(pivots[r], true)
			}
		}
		basis = append(basis, v)
	}
	return basis
}

// String renders the matrix one row per line.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i, r := range m.data {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(r.String())
	}
	return sb.String()
}
