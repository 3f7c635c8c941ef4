package gf256

import (
	"errors"
	"fmt"
)

// Matrix is a dense matrix over GF(2^8), stored row-major. It is the
// linear-algebra workhorse behind Reed-Solomon encoding matrices and
// decoding (inversion of the surviving-rows submatrix).
type Matrix struct {
	Rows, Cols int
	Data       []byte // len == Rows*Cols, row-major
}

// errSingular is returned when attempting to invert a singular matrix.
var errSingular = errors.New("gf256: matrix is singular")

// newMatrix returns a zero matrix of the given shape.
func newMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gf256: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// identity returns the n x n identity matrix.
func identity(n int) *Matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows x cols Vandermonde matrix with
// m[r][c] = r^c, using the byte value r itself as the evaluation point
// (256 distinct points, so rows may go up to 256). Any subset of up to
// cols rows is linearly independent, which is the property erasure
// codes need.
func Vandermonde(rows, cols int) *Matrix {
	if rows > 256 {
		panic("gf256: Vandermonde matrix needs rows <= 256")
	}
	m := newMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, pow(byte(r), c))
		}
	}
	return m
}

// Get returns element (r, c).
func (m *Matrix) Get(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r (not a copy).
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	n := newMatrix(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// Mul returns the matrix product m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("gf256: cannot multiply %dx%d by %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := newMatrix(m.Rows, other.Cols)
	for r := 0; r < m.Rows; r++ {
		mrow := m.Row(r)
		orow := out.Row(r)
		for k := 0; k < m.Cols; k++ {
			MulAddSlice(mrow[k], other.Row(k), orow)
		}
	}
	return out
}

// SubMatrix returns a copy of rows [r0,r1) and columns [c0,c1).
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	out := newMatrix(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		copy(out.Row(r-r0), m.Row(r)[c0:c1])
	}
	return out
}

// SelectRows returns a copy of the given rows, in order.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	out := newMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

// Invert returns the inverse of a square matrix via Gauss-Jordan
// elimination, or errSingular.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		panic("gf256: cannot invert non-square matrix")
	}
	n := m.Rows
	work := m.Clone()
	out := identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.Get(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, errSingular
		}
		work.SwapRows(col, pivot)
		out.SwapRows(col, pivot)
		// Scale pivot row to make the pivot 1.
		if p := work.Get(col, col); p != 1 {
			ip := inv(p)
			mulSlice(ip, work.Row(col), work.Row(col))
			mulSlice(ip, out.Row(col), out.Row(col))
		}
		// Eliminate the column everywhere else.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := work.Get(r, col); f != 0 {
				MulAddSlice(f, work.Row(col), work.Row(r))
				MulAddSlice(f, out.Row(col), out.Row(r))
			}
		}
	}
	return out, nil
}

// IsIdentity reports whether m is square and equal to the identity.
func (m *Matrix) IsIdentity() bool {
	if m.Rows != m.Cols {
		return false
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			want := byte(0)
			if r == c {
				want = 1
			}
			if m.Get(r, c) != want {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for r := 0; r < m.Rows; r++ {
		s += fmt.Sprintf("%3d\n", m.Row(r))
	}
	return s
}
