package gf256

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	id := identity(4)
	if !id.IsIdentity() {
		t.Fatal("identity(4) is not the identity")
	}
	if Vandermonde(3, 3).IsIdentity() {
		t.Fatal("Vandermonde(3,3) should not be identity")
	}
	if newMatrix(2, 3).IsIdentity() {
		t.Fatal("non-square matrix cannot be identity")
	}
}

func TestVandermondeShapeAndFirstColumn(t *testing.T) {
	m := Vandermonde(5, 3)
	if m.Rows != 5 || m.Cols != 3 {
		t.Fatalf("shape = %dx%d, want 5x3", m.Rows, m.Cols)
	}
	for r := 0; r < 5; r++ {
		if m.Get(r, 0) != 1 {
			t.Errorf("column 0 of a Vandermonde matrix must be all ones, row %d = %#x", r, m.Get(r, 0))
		}
	}
	// Row r is powers of the evaluation point r.
	for r := 0; r < 5; r++ {
		for c := 0; c < 3; c++ {
			if m.Get(r, c) != pow(byte(r), c) {
				t.Fatalf("m[%d][%d] = %#x, want %#x", r, c, m.Get(r, c), pow(byte(r), c))
			}
		}
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		// Random matrices over a field are invertible with high
		// probability; retry until one is.
		var m *Matrix
		for {
			m = newMatrix(n, n)
			for i := range m.Data {
				m.Data[i] = byte(rng.Intn(256))
			}
			if _, err := m.Invert(); err == nil {
				break
			}
		}
		inv, err := m.Invert()
		if err != nil {
			t.Fatal(err)
		}
		if !m.Mul(inv).IsIdentity() {
			t.Fatalf("m * m^-1 != I for n=%d", n)
		}
		if !inv.Mul(m).IsIdentity() {
			t.Fatalf("m^-1 * m != I for n=%d", n)
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := newMatrix(3, 3)
	// Two identical rows.
	for c := 0; c < 3; c++ {
		m.Set(0, c, byte(c+1))
		m.Set(1, c, byte(c+1))
		m.Set(2, c, byte(7*c+5))
	}
	if _, err := m.Invert(); err != errSingular {
		t.Fatalf("expected errSingular, got %v", err)
	}
	z := newMatrix(2, 2)
	if _, err := z.Invert(); err != errSingular {
		t.Fatalf("zero matrix: expected errSingular, got %v", err)
	}
}

func TestVandermondeRowSubsetsInvertible(t *testing.T) {
	// Any k rows of a k-column Vandermonde matrix built from distinct
	// points form an invertible matrix.
	const n, k = 12, 5
	m := Vandermonde(n, k)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		rows := rng.Perm(n)[:k]
		sub := m.SelectRows(rows)
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("rows %v of Vandermonde(%d,%d) singular: %v", rows, n, k, err)
		}
	}
}

// mulVec computes dst = m * src, one scalar product per row: the
// reference Mul's row-slice accumulation is checked against.
func mulVec(m *Matrix, src, dst []byte) {
	for r := 0; r < m.Rows; r++ {
		var acc byte
		for c, s := range src {
			acc ^= mul(m.Get(r, c), s)
		}
		dst[r] = acc
	}
}

func TestMulAgainstMulVec(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(6), 1+rng.Intn(6), 1
		a := newMatrix(r, k)
		for i := range a.Data {
			a.Data[i] = byte(rng.Intn(256))
		}
		vec := make([]byte, k)
		for i := range vec {
			vec[i] = byte(rng.Intn(256))
		}
		b := newMatrix(k, c)
		copy(b.Data, vec)
		viaMul := a.Mul(b)
		viaVec := make([]byte, r)
		mulVec(a, vec, viaVec)
		for i := 0; i < r; i++ {
			if viaMul.Get(i, 0) != viaVec[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := newMatrix(4, 4)
	for i := range m.Data {
		m.Data[i] = byte(rng.Intn(256))
	}
	if got := m.Mul(identity(4)); string(got.Data) != string(m.Data) {
		t.Fatal("m * I != m")
	}
	if got := identity(4).Mul(m); string(got.Data) != string(m.Data) {
		t.Fatal("I * m != m")
	}
}

func TestSubMatrixAndSelectRows(t *testing.T) {
	m := Vandermonde(6, 4)
	sub := m.SubMatrix(1, 4, 1, 3)
	if sub.Rows != 3 || sub.Cols != 2 {
		t.Fatalf("SubMatrix shape %dx%d, want 3x2", sub.Rows, sub.Cols)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 2; c++ {
			if sub.Get(r, c) != m.Get(r+1, c+1) {
				t.Fatal("SubMatrix content mismatch")
			}
		}
	}
	sel := m.SelectRows([]int{5, 0})
	if sel.Get(0, 1) != m.Get(5, 1) || sel.Get(1, 1) != m.Get(0, 1) {
		t.Fatal("SelectRows content mismatch")
	}
}

func TestSwapRows(t *testing.T) {
	m := Vandermonde(3, 3)
	want0, want2 := append([]byte(nil), m.Row(2)...), append([]byte(nil), m.Row(0)...)
	m.SwapRows(0, 2)
	if string(m.Row(0)) != string(want0) || string(m.Row(2)) != string(want2) {
		t.Fatal("SwapRows did not exchange rows")
	}
	m.SwapRows(1, 1) // no-op must not corrupt
	if string(m.Row(0)) != string(want0) {
		t.Fatal("SwapRows(i,i) corrupted matrix")
	}
}

func TestNewMatrixInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newMatrix(0, 3) must panic")
		}
	}()
	newMatrix(0, 3)
}
