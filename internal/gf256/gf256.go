// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is realised as GF(2)[x]/(x^8 + x^4 + x^3 + x^2 + 1), i.e. the
// irreducible polynomial 0x11D used by most Reed-Solomon deployments
// (CCSDS, QR codes, and the original Reed-Solomon paper's construction
// over a binary extension field).
//
// Three layers share the field. Scalar mul, inv and pow run on log/exp
// tables built at init. The slice kernels mulSlice and MulAddSlice
// apply one coefficient to one slice through a row of the 64 KiB
// product table; Matrix is built on them. MulRows is the erasure
// coder's hot loop: a whole coefficient-matrix-times-shards product,
// through tables it builds per call that yield eight output rows per
// lookup (see its doc comment).
//
// Only the Matrix functions that return a new Matrix allocate. The
// shared tables are read-only after init and MulRows keeps its
// accumulator and tables on its own stack, so everything but writes to
// one Matrix or slice is safe for concurrent use.
package gf256

// poly is the irreducible polynomial defining the field, with the x^8
// term implicit: x^8 + x^4 + x^3 + x^2 + 1.
const poly = 0x1D

// generator is the primitive element used to build the log/exp tables.
// 2 (i.e. the polynomial x) is primitive for 0x11D.
const generator = 2

// order is the multiplicative order of the field's nonzero elements.
const order = 255

var (
	expTable [512]byte // expTable[i] = generator^i, doubled to avoid mod 255 in mul
	logTable [256]byte // logTable[x] = log_generator(x); logTable[0] is unused
)

func init() {
	x := byte(1)
	for i := 0; i < order; i++ {
		expTable[i] = x
		logTable[x] = byte(i)
		// Multiply x by the generator (x <<= 1 with polynomial reduction).
		carry := x&0x80 != 0
		x <<= 1
		if carry {
			x ^= poly
		}
	}
	if x != 1 {
		panic("gf256: generator does not have order 255")
	}
	for i := order; i < 512; i++ {
		expTable[i] = expTable[i-order]
	}
}

// add returns a + b in GF(2^8). Addition is XOR; it is its own inverse,
// so subtraction is the same operation.
func add(a, b byte) byte { return a ^ b }

// mul returns a * b in GF(2^8).
func mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// inv returns the multiplicative inverse of a. It panics if a == 0.
func inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[order-int(logTable[a])]
}

// pow returns a^n in GF(2^8) for n >= 0, with 0^0 == 1.
func pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(int(logTable[a])*n)%order]
}

// mulSlice sets dst[i] = c * src[i] for all i. dst and src must have the
// same length; they may alias.
func mulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: mulSlice length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	mt := mulTable(c)
	for i, s := range src {
		dst[i] = mt[s]
	}
}

// MulAddSlice sets dst[i] ^= c * src[i] for all i: a fused
// multiply-accumulate, the row operation of Matrix.Mul and Invert.
// dst and src must have the same length and must not alias unless equal.
func MulAddSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	mt := mulTable(c)
	for i, s := range src {
		dst[i] ^= mt[s]
	}
}

// mulTables holds the full 256x256 product table (64 KiB), built at init
// so that slice kernels are safe for concurrent use.
var mulTables [256][256]byte

func init() {
	for c := 1; c < 256; c++ {
		lc := int(logTable[c])
		for x := 1; x < 256; x++ {
			mulTables[c][x] = expTable[lc+int(logTable[x])]
		}
	}
}

func mulTable(c byte) *[256]byte { return &mulTables[c] }
