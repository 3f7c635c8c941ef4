package gf256

import (
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	if add(0x53, 0xCA) != 0x53^0xCA {
		t.Fatalf("add(0x53, 0xCA) = %#x, want %#x", add(0x53, 0xCA), 0x53^0xCA)
	}
}

func TestMulKnownValues(t *testing.T) {
	// Reference products for polynomial 0x11D.
	cases := []struct{ a, b, want byte }{
		{0, 0, 0},
		{0, 7, 0},
		{1, 1, 1},
		{1, 0xFF, 0xFF},
		{2, 2, 4},
		{2, 0x80, 0x1D},    // x*x^7 = x^8 = x^4+x^3+x^2+1 under 0x11D
		{0x80, 0x80, 0x13}, // x^14 reduced by hand: 0x13
	}
	for _, c := range cases {
		if got := mul(c.a, c.b); got != c.want {
			t.Errorf("mul(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

// mulSlow multiplies via carry-less multiplication with polynomial
// reduction, independent of the table construction.
func mulSlow(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		carry := a&0x80 != 0
		a <<= 1
		if carry {
			a ^= poly
		}
		b >>= 1
	}
	return p
}

func TestMulMatchesSlowReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := mul(byte(a), byte(b)), mulSlow(byte(a), byte(b)); got != want {
				t.Fatalf("mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

func TestFieldAxiomsProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	// Commutativity and associativity of multiplication.
	if err := quick.Check(func(a, b, c byte) bool {
		return mul(a, b) == mul(b, a) && mul(mul(a, b), c) == mul(a, mul(b, c))
	}, cfg); err != nil {
		t.Error(err)
	}
	// Distributivity.
	if err := quick.Check(func(a, b, c byte) bool {
		return mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
	}, cfg); err != nil {
		t.Error(err)
	}
	// Multiplicative identity and zero.
	if err := quick.Check(func(a byte) bool {
		return mul(a, 1) == a && mul(a, 0) == 0
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestInverses(t *testing.T) {
	for a := 1; a < 256; a++ {
		ia := inv(byte(a))
		if mul(byte(a), ia) != 1 {
			t.Fatalf("inv(%#x) = %#x is not an inverse", a, ia)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inv(0) must panic")
		}
	}()
	inv(0)
}

// TestExpLogRoundTrip holds the tables mul and inv read: logTable
// inverts expTable on every nonzero element, the generator's powers are
// all distinct (it is primitive), and the doubled half repeats the first.
func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if expTable[logTable[a]] != byte(a) {
			t.Fatalf("expTable[logTable[%#x]] != %#x", a, a)
		}
	}
	seen := make(map[byte]bool)
	for i := 0; i < order; i++ {
		v := expTable[i]
		if seen[v] {
			t.Fatalf("expTable[%d] = %#x repeats; generator is not primitive", i, v)
		}
		seen[v] = true
		if int(logTable[v]) != i {
			t.Fatalf("logTable[expTable[%d]] = %d", i, logTable[v])
		}
	}
	for i := order; i < len(expTable); i++ {
		if expTable[i] != expTable[i-order] {
			t.Fatalf("expTable[%d] = %#x, expTable[%d] = %#x", i, expTable[i], i-order, expTable[i-order])
		}
	}
}

func TestPow(t *testing.T) {
	if pow(0, 0) != 1 {
		t.Error("0^0 must be 1 by convention")
	}
	if pow(0, 5) != 0 {
		t.Error("0^5 must be 0")
	}
	for _, a := range []byte{1, 2, 3, 0x1D, 0xFF} {
		acc := byte(1)
		for n := 0; n < 10; n++ {
			if got := pow(a, n); got != acc {
				t.Fatalf("pow(%#x, %d) = %#x, want %#x", a, n, got, acc)
			}
			acc = mul(acc, a)
		}
	}
}

func TestMulSlice(t *testing.T) {
	src := []byte{0, 1, 2, 0x80, 0xFF, 0x53}
	dst := make([]byte, len(src))
	for _, c := range []byte{0, 1, 2, 0xCA} {
		mulSlice(c, src, dst)
		for i := range src {
			if dst[i] != mul(c, src[i]) {
				t.Fatalf("mulSlice(c=%#x)[%d] = %#x, want %#x", c, i, dst[i], mul(c, src[i]))
			}
		}
	}
}

func TestMulSliceAliasing(t *testing.T) {
	buf := []byte{1, 2, 3, 4, 5}
	want := make([]byte, len(buf))
	mulSlice(7, buf, want)
	mulSlice(7, buf, buf) // in-place
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatalf("in-place mulSlice differs at %d", i)
		}
	}
}

func TestMulAddSlice(t *testing.T) {
	src := []byte{9, 8, 7, 6}
	for _, c := range []byte{0, 1, 5} {
		dst := []byte{1, 2, 3, 4}
		want := make([]byte, 4)
		for i := range want {
			want[i] = add(dst[i], mul(c, src[i]))
		}
		MulAddSlice(c, src, dst)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("MulAddSlice(c=%#x)[%d] = %#x, want %#x", c, i, dst[i], want[i])
			}
		}
	}
}

func TestSliceLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"mulSlice":    func() { mulSlice(1, make([]byte, 2), make([]byte, 3)) },
		"MulAddSlice": func() { MulAddSlice(1, make([]byte, 2), make([]byte, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths must panic", name)
				}
			}()
			f()
		}()
	}
}
