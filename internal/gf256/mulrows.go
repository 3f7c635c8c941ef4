package gf256

const (
	// rowGroup is the number of output rows one packed table entry
	// carries: the eight byte lanes of a uint64.
	rowGroup = 8
	// colGroup is the number of source shards folded into the
	// accumulator per pass over it.
	colGroup = 4
	// chunkLen is the number of bytes of every shard handled before
	// moving on. One chunk's working set is a 64 KiB accumulator, 8 KiB
	// of tables and 32 KiB of sources, which stays L2-resident while the
	// tables stay in L1; the tables are rebuilt per chunk, which costs
	// about a tenth of the lookups they serve.
	chunkLen = 8 << 10
)

// MulRows computes the matrix-times-shards product out[r] = sum over c
// of coef[r][c] * in[c], byte position by byte position: the whole of a
// Reed-Solomon encode (coef = the parity rows) or decode (coef = rows of
// the inverted survivor matrix) in one call. coef must have len(out)
// rows of len(in) coefficients and every shard of in and out must have
// the same length, else MulRows panics. out must not alias in; out's
// previous contents are overwritten.
//
// The kernel is bound by table lookups, not by memory, so it makes each
// lookup serve eight output rows: for rows r0..r0+7 and column c it
// builds T[s] = the eight products coef[r0+j][c]*s packed one per byte
// lane, and a source byte then costs one load of T and one XOR into a
// uint64 accumulator instead of eight loads and eight read-modify-write
// bytes. Shapes that do not divide (rows % 8, cols % 4, a short last
// chunk) run through the same loop with zero lanes and zero tables.
func MulRows(coef [][]byte, in, out [][]byte) {
	if len(coef) != len(out) {
		panic("gf256: MulRows row count mismatch")
	}
	if len(out) == 0 {
		return
	}
	size := len(out[0])
	checkShards(out, size)
	checkShards(in, size)
	for _, row := range coef {
		if len(row) != len(in) {
			panic("gf256: MulRows column count mismatch")
		}
	}

	var (
		accBuf [chunkLen]uint64
		tabs   [colGroup][256]uint64
	)
	for off := 0; off < size; off += chunkLen {
		acc := accBuf[:min(chunkLen, size-off)]
		for r0 := 0; r0 < len(out); r0 += rowGroup {
			rows := coef[r0:min(r0+rowGroup, len(coef))]
			clear(acc)
			fold(acc, &tabs, rows, 0, in, off)
			for j := range rows {
				scatter(out[r0+j][off:], acc, uint(8*j))
			}
		}
	}
}

func checkShards(shards [][]byte, size int) {
	for _, s := range shards {
		if len(s) != size {
			panic("gf256: shard length mismatch")
		}
	}
}

// fold adds to the accumulator chunk acc, which stands for bytes off..
// off+len(acc)-1 of up to eight output rows, the products
// rows[j][c0+c] * in[c] over every source shard c.
func fold(acc []uint64, tabs *[colGroup][256]uint64, rows [][]byte, c0 int, in [][]byte, off int) {
	var src [colGroup][]byte
	for c := 0; c < len(in); c += colGroup {
		for j := range src {
			if c+j < len(in) {
				buildTable(&tabs[j], rows, c0+c+j)
				src[j] = in[c+j][off:]
			} else {
				// Past the last column: a zero table over any
				// source adds nothing.
				tabs[j] = [256]uint64{}
				src[j] = src[0]
			}
		}
		mulAdd4(acc, tabs, src[0], src[1], src[2], src[3])
	}
}

// buildTable fills t[s] with the products rows[j][c] * s, j-th product
// in the j-th byte lane (lanes past len(rows) stay zero). Multiplication
// by a constant is linear over GF(2), so only the eight basis bytes need
// field arithmetic, here a lane-parallel doubling, and every other entry
// is the XOR of two earlier ones.
func buildTable(t *[256]uint64, rows [][]byte, c int) {
	var v uint64
	for j, row := range rows {
		v |= uint64(row[c]) << (8 * j)
	}
	t[0] = 0
	for p := 1; p < 256; p <<= 1 {
		t[p] = v
		for s := 1; s < p; s++ {
			t[p+s] = v ^ t[s]
		}
		v = double8(v)
	}
}

// double8 multiplies each of the eight byte lanes of v by the field's
// generator x: a left shift within the lane, reduced by poly wherever
// the lane's top bit was set.
func double8(v uint64) uint64 {
	const (
		low7 = 0x7f7f7f7f7f7f7f7f
		ones = 0x0101010101010101
	)
	return (v&low7)<<1 ^ (v>>7&ones)*poly
}

// mulAdd4 folds four source chunks into the accumulator through their
// four tables.
func mulAdd4(acc []uint64, t *[colGroup][256]uint64, a, b, c, d []byte) {
	a, b, c, d = a[:len(acc)], b[:len(acc)], c[:len(acc)], d[:len(acc)]
	t0, t1, t2, t3 := &t[0], &t[1], &t[2], &t[3]
	for i := range acc {
		acc[i] ^= t0[a[i]] ^ t1[b[i]] ^ t2[c[i]] ^ t3[d[i]]
	}
}

// scatter writes one byte lane of the accumulator to an output shard.
func scatter(dst []byte, acc []uint64, shift uint) {
	dst = dst[:len(acc)]
	for i, v := range acc {
		dst[i] = byte(v >> shift)
	}
}
