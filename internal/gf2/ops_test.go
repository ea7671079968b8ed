package gf2

import (
	"fmt"
	"math/bits"
)

// Vector and matrix operations that only this package's tests use, as
// fixtures and as oracles (MulVec checks Nullspace, Equal checks Solve):
// nothing outside the tests calls them.

// VecFromIndices returns a length-n vector with ones at the given indices.
func VecFromIndices(n int, idx []int) Vec {
	v := NewVec(n)
	for _, i := range idx {
		v.Set(i, true)
	}
	return v
}

// Flip toggles the bit at index i.
func (v Vec) Flip(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("gf2: index %d out of range [0,%d)", i, v.n))
	}
	v.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

// Dot returns the GF(2) inner product of v and u.
func (v Vec) Dot(u Vec) bool {
	if v.n != u.n {
		panic("gf2: length mismatch in Dot")
	}
	var acc uint64
	for i := range v.words {
		acc ^= v.words[i] & u.words[i]
	}
	return bits.OnesCount64(acc)%2 == 1
}

// Weight returns the Hamming weight of v.
func (v Vec) Weight() int {
	w := 0
	for _, word := range v.words {
		w += bits.OnesCount64(word)
	}
	return w
}

// IsZero reports whether every bit of v is zero.
func (v Vec) IsZero() bool {
	for _, word := range v.words {
		if word != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and u hold identical bits.
func (v Vec) Equal(u Vec) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// FromRows builds a matrix whose rows are copies of the given vectors.
// All vectors must share the same length.
func FromRows(rows []Vec) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := rows[0].Len()
	m := &Matrix{rows: len(rows), cols: cols, data: make([]Vec, len(rows))}
	for i, r := range rows {
		if r.Len() != cols {
			panic("gf2: inconsistent row lengths")
		}
		m.data[i] = r.Clone()
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Get reports the bit at (r, c).
func (m *Matrix) Get(r, c int) bool { return m.data[r].Get(c) }

// Row returns row r without copying; mutating it mutates the matrix.
func (m *Matrix) Row(r int) Vec { return m.data[r] }

// InSpan reports whether v lies in the row span of m.
func (m *Matrix) InSpan(v Vec) bool {
	if v.Len() != m.cols {
		panic("gf2: length mismatch in InSpan")
	}
	aug := m.Clone()
	aug.AppendRow(v)
	return aug.Rank() == m.Rank()
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for r := 0; r < m.rows; r++ {
		for _, c := range m.data[r].Indices() {
			t.data[c].Set(r, true)
		}
	}
	return t
}

// MulVec returns m·x for a column vector x of length Cols.
func (m *Matrix) MulVec(x Vec) Vec {
	if x.Len() != m.cols {
		panic("gf2: length mismatch in MulVec")
	}
	out := NewVec(m.rows)
	for r := 0; r < m.rows; r++ {
		if m.data[r].Dot(x) {
			out.Set(r, true)
		}
	}
	return out
}
