package gf256

// Acc was the kernel of the backup pipeline while parity had to be kept
// until an archive's last byte: MulRows' loop adding into an accumulator
// that persists between calls. Archives are encoded stripe by stripe now
// and MulRows alone is the kernel; Acc stays here as a second route
// through fold and scatter (columns in any order and grouping, a column
// offset other than zero) for the tests that compare both with the
// scalar reference.

// AccBatch is the batch of columns the pipeline used to fold at a time.
const AccBatch = 16

// Acc is a MulRows product under construction, for a caller that has
// the source shards one after another and not all at once: columns are
// added with MulAdd in any order and grouping, and the finished rows
// are read with Rows. It keeps the sums the way the kernel computes
// them, eight rows to a uint64, so it occupies exactly the bytes of the
// rows it stands for (rounded up to a multiple of eight rows) and no
// output shard exists before Rows writes it.
type Acc struct {
	rows, size int
	// words holds row group g (rows 8g..8g+7, one per byte lane) at
	// words[g*size : (g+1)*size].
	words []uint64
}

// NewAcc returns the zero product of rows output rows over shards of
// size bytes.
func NewAcc(rows, size int) *Acc {
	groups := (rows + rowGroup - 1) / rowGroup
	return &Acc{rows: rows, size: size, words: make([]uint64, groups*size)}
}

// MulAdd adds, to every row r, the sum over j of coef[r][c0+j] * in[j]:
// the shards of in are columns c0, c0+1, ... of the product. coef must
// have one row per output row, each reaching column c0+len(in)-1, and
// every shard must have the accumulator's size, else MulAdd panics. It
// is MulRows' loop without the clearing before and the scatter after.
func (a *Acc) MulAdd(coef [][]byte, c0 int, in [][]byte) {
	if len(coef) != a.rows {
		panic("gf256: Acc.MulAdd row count mismatch")
	}
	checkShards(in, a.size)
	for _, row := range coef {
		if len(row) < c0+len(in) {
			panic("gf256: Acc.MulAdd column count mismatch")
		}
	}
	var tabs [colGroup][256]uint64
	for off := 0; off < a.size; off += chunkLen {
		n := min(chunkLen, a.size-off)
		for r0 := 0; r0 < a.rows; r0 += rowGroup {
			lo := r0/rowGroup*a.size + off
			fold(a.words[lo:lo+n], &tabs, coef[r0:min(r0+rowGroup, a.rows)], c0, in, off)
		}
	}
}

// Rows writes rows r0, r0+1, ... of the product to out, one per shard;
// eight rows starting at a multiple of eight read one row group once.
// The rows must exist and every shard of out must have the
// accumulator's size, else Rows panics.
func (a *Acc) Rows(r0 int, out [][]byte) {
	if r0 < 0 || r0+len(out) > a.rows {
		panic("gf256: Acc.Rows range mismatch")
	}
	checkShards(out, a.size)
	for off := 0; off < a.size; off += chunkLen {
		n := min(chunkLen, a.size-off)
		for j, o := range out {
			r := r0 + j
			lo := r/rowGroup*a.size + off
			scatter(o[off:], a.words[lo:lo+n], uint(8*(r%rowGroup)))
		}
	}
}
