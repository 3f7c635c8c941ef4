package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// mulRowsRef is the differential reference for MulRows: the definition,
// one mul per coefficient per byte, sharing no table or loop with the
// kernel.
func mulRowsRef(coef [][]byte, in [][]byte, size int) [][]byte {
	out := make([][]byte, len(coef))
	for r, row := range coef {
		out[r] = make([]byte, size)
		for c, f := range row {
			for i, s := range in[c] {
				out[r][i] ^= mul(f, s)
			}
		}
	}
	return out
}

// randomProblem returns a rows x cols coefficient matrix and cols
// source shards of the given size. Row 0 is all zeros and row 1 all
// ones when present (the coefficients the scalar kernels special-case),
// and zeros are sprinkled through the rest.
func randomProblem(rng *rand.Rand, rows, cols, size int) (coef, in [][]byte) {
	coef = make([][]byte, rows)
	for r := range coef {
		coef[r] = make([]byte, cols)
		switch r {
		case 0:
		case 1:
			for c := range coef[r] {
				coef[r][c] = 1
			}
		default:
			rng.Read(coef[r])
			if cols > 2 {
				coef[r][rng.Intn(cols)] = 0
			}
		}
	}
	in = make([][]byte, cols)
	for c := range in {
		in[c] = make([]byte, size)
		rng.Read(in[c])
	}
	return coef, in
}

// dirtyShards returns n shards of the given size filled with a nonzero
// byte: MulRows overwrites, it does not accumulate.
func dirtyShards(n, size int) [][]byte {
	out := make([][]byte, n)
	for r := range out {
		out[r] = bytes.Repeat([]byte{0xA5}, size)
	}
	return out
}

func TestMulRowsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{1, 7, 8, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 17}
	for _, rows := range []int{1, 7, 8, 9, 128} {
		for _, cols := range []int{1, 3, 4, 5, 128} {
			for _, size := range sizes {
				if testing.Short() && rows*cols*size > 1<<24 {
					continue // the reference's mul per byte takes minutes under -race
				}
				coef, in := randomProblem(rng, rows, cols, size)
				want := mulRowsRef(coef, in, size)
				got := dirtyShards(rows, size)
				MulRows(coef, in, got)
				for r := range want {
					if !bytes.Equal(got[r], want[r]) {
						t.Fatalf("%dx%d size %d: row %d differs from the mul reference", rows, cols, size, r)
					}
				}
			}
		}
	}
}

// accProduct computes the same product through an Acc, columns fed
// batch at a time starting with the batch that holds column first and
// wrapping around, rows read back rowsPer at a time.
func accProduct(coef, in [][]byte, size, batch, first, rowsPer int) [][]byte {
	acc := NewAcc(len(coef), size)
	var starts []int
	for c0 := 0; c0 < len(in); c0 += batch {
		starts = append(starts, c0)
	}
	for i := range starts {
		c0 := starts[(i+first/batch)%len(starts)]
		acc.MulAdd(coef, c0, in[c0:min(c0+batch, len(in))])
	}
	out := dirtyShards(len(coef), size)
	for r0 := 0; r0 < len(out); r0 += rowsPer {
		acc.Rows(r0, out[r0:min(r0+rowsPer, len(out))])
	}
	return out
}

func TestAccMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, rows := range []int{1, 7, 8, 9, 24} {
		for _, cols := range []int{1, 5, 16, 37} {
			for _, size := range []int{1, 8, chunkLen - 1, chunkLen + 1, 2*chunkLen + 17} {
				coef, in := randomProblem(rng, rows, cols, size)
				want := mulRowsRef(coef, in, size)
				for _, batch := range []int{1, 3, 4, AccBatch, cols} {
					got := accProduct(coef, in, size, batch, rng.Intn(cols), 1+rng.Intn(rows))
					for r := range want {
						if !bytes.Equal(got[r], want[r]) {
							t.Fatalf("%dx%d size %d, %d columns at a time: row %d differs from the mul reference", rows, cols, size, batch, r)
						}
					}
				}
			}
		}
	}
}

func TestAccEmptyAndMismatch(t *testing.T) {
	// Nothing added: every row is zero. No rows, no bytes: nothing to do.
	out := dirtyShards(3, 5)
	NewAcc(3, 5).Rows(0, out)
	for r := range out {
		if !bytes.Equal(out[r], make([]byte, 5)) {
			t.Fatalf("row %d of an empty product = %v, want zeros", r, out[r])
		}
	}
	NewAcc(0, 4).MulAdd(nil, 0, [][]byte{make([]byte, 4)})
	NewAcc(2, 0).MulAdd([][]byte{{1}, {2}}, 0, [][]byte{{}})

	sh := func(n int) []byte { return make([]byte, n) }
	cases := map[string]func(a *Acc){
		"fewer coefficient rows than rows": func(a *Acc) { a.MulAdd([][]byte{{1}}, 0, [][]byte{sh(4)}) },
		"row ends before the last column":  func(a *Acc) { a.MulAdd([][]byte{{1, 2}, {1}}, 0, [][]byte{sh(4), sh(4)}) },
		"column offset past the row":       func(a *Acc) { a.MulAdd([][]byte{{1}, {1}}, 1, [][]byte{sh(4)}) },
		"short source shard":               func(a *Acc) { a.MulAdd([][]byte{{1}, {1}}, 0, [][]byte{sh(3)}) },
		"short output shard":               func(a *Acc) { a.Rows(0, [][]byte{sh(4), sh(3)}) },
		"rows past the last":               func(a *Acc) { a.Rows(1, [][]byte{sh(4), sh(4)}) },
	}
	for name, call := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call(NewAcc(2, 4))
		}()
	}
}

func TestMulRowsEmptyShapes(t *testing.T) {
	MulRows(nil, nil, nil) // no rows: nothing to do
	MulRows(nil, [][]byte{{1, 2}}, nil)

	// No columns: the empty sum is zero.
	out := dirtyShards(2, 5)
	MulRows([][]byte{{}, {}}, nil, out)
	for r := range out {
		if !bytes.Equal(out[r], make([]byte, 5)) {
			t.Fatalf("row %d over zero columns = %v, want zeros", r, out[r])
		}
	}

	// Zero-length shards.
	MulRows([][]byte{{3}}, [][]byte{{}}, [][]byte{{}})
}

func TestMulRowsMismatchPanics(t *testing.T) {
	sh := func(n int) []byte { return make([]byte, n) }
	cases := []struct {
		name          string
		coef, in, out [][]byte
	}{
		{"fewer coefficient rows than outputs", [][]byte{{1}}, [][]byte{sh(4)}, [][]byte{sh(4), sh(4)}},
		{"more coefficient rows than outputs", [][]byte{{1}, {1}}, [][]byte{sh(4)}, [][]byte{sh(4)}},
		{"short coefficient row", [][]byte{{1, 2}, {1}}, [][]byte{sh(4), sh(4)}, [][]byte{sh(4), sh(4)}},
		{"long coefficient row", [][]byte{{1, 2, 3}}, [][]byte{sh(4), sh(4)}, [][]byte{sh(4)}},
		{"short input shard", [][]byte{{1, 2}}, [][]byte{sh(4), sh(3)}, [][]byte{sh(4)}},
		{"short output shard", [][]byte{{1}, {1}}, [][]byte{sh(4)}, [][]byte{sh(4), sh(3)}},
		{"inputs longer than outputs", [][]byte{{1}}, [][]byte{sh(5)}, [][]byte{sh(4)}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MulRows did not panic", c.name)
				}
			}()
			MulRows(c.coef, c.in, c.out)
		}()
	}
}

func TestMulRowsAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	coef, in := randomProblem(rng, 9, 5, chunkLen+3)
	out := dirtyShards(9, chunkLen+3)
	if n := testing.AllocsPerRun(10, func() { MulRows(coef, in, out) }); n != 0 {
		t.Fatalf("MulRows allocates %v times per call, want 0", n)
	}
	acc := NewAcc(9, chunkLen+3)
	if n := testing.AllocsPerRun(10, func() { acc.MulAdd(coef, 0, in); acc.Rows(0, out) }); n != 0 {
		t.Fatalf("Acc.MulAdd and Rows allocate %v times per call, want 0", n)
	}
}

// FuzzMulRows takes the shape, the shard size and every byte from the
// fuzzer and compares the kernel, in one call and accumulated a batch
// of columns at a time (the batch is what the shape bytes leave over),
// with the mul-only reference. The seeds are the committed corpus under
// testdata/fuzz/FuzzMulRows.
func FuzzMulRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, rows, cols uint8, size uint16, data []byte) {
		// Bound the reference's rows*cols*size mul calls per input.
		r, c, n := int(rows%20), int(cols%20), int(size)%(2*chunkLen+2)
		next := fuzzBytes(data)
		coef := make([][]byte, r)
		for i := range coef {
			coef[i] = next(c)
		}
		in := make([][]byte, c)
		for i := range in {
			in[i] = next(n)
		}
		want := mulRowsRef(coef, in, n)
		got := dirtyShards(r, n)
		MulRows(coef, in, got)
		batch := 1 + int(rows/20+cols/20)%AccBatch
		acc := accProduct(coef, in, n, batch, int(size)%max(c, 1), 1+int(size)%max(r, 1))
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%dx%d size %d: row %d differs from the mul reference", r, c, n, i)
			}
			if !bytes.Equal(acc[i], want[i]) {
				t.Fatalf("%dx%d size %d, %d columns at a time: accumulated row %d differs from the mul reference", r, c, n, batch, i)
			}
		}
	})
}

// fuzzBytes returns a function handing out n bytes at a time: the
// fuzzer's data first, cycled with a running offset so that a short
// input still yields varied shards.
func fuzzBytes(data []byte) func(n int) []byte {
	pos := 0
	return func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			if len(data) > 0 {
				b[i] = data[pos%len(data)] + byte(pos/len(data))
			}
			pos++
		}
		return b
	}
}
