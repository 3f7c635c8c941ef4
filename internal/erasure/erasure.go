// Package erasure implements systematic Reed-Solomon erasure coding over
// GF(2^8), the redundancy scheme the backup system stores archives with.
//
// An archive is split into k data shards; m parity shards are computed so
// that ANY k of the n = k+m shards reconstruct the original data. This is
// the property the paper relies on: storing n blocks on n distinct peers
// tolerates m peer failures (compare replication, where doubling storage
// only tolerates one failure per copy).
//
// The encoding matrix is a systematised Vandermonde matrix, the classic
// Reed-Solomon form: its first k rows are the identity, so data shards
// are stored verbatim, and any k of its rows form an invertible matrix,
// which is exactly the any-k-of-n recovery property.
//
// Encode and Reconstruct work on a full set of n shards in memory.
// Stream encodes an archive one stripe (one chunk of every shard) at a
// time, for a backup that must not hold its archive, and produces the
// same parity bytes as Encode; ReconstructData over the chunks of one
// stripe is its counterpart on the way back.
//
// Every product of 16 rows or more (an encode's parity rows, a
// reconstruct's missing rows) is computed in two halves at once: the
// caller computes the first, and the package's one helper goroutine the
// second (see mulRows). Each output row depends on its coefficient row
// alone, so the bytes are those of one gf256.MulRows call.
package erasure

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"p2pbackup/internal/gf256"
)

// Common errors.
var (
	ErrInvalidParams = errors.New("erasure: k must be >= 1, m >= 0, and k+m <= 256")
	ErrTooFewShards  = errors.New("erasure: too few shards to reconstruct")
	errShardCount    = errors.New("erasure: wrong number of shards")
	errShardSize     = errors.New("erasure: shards must be non-empty and all the same size")
	errShortData     = errors.New("erasure: data too short")
)

// Encoder encodes and reconstructs Reed-Solomon shard sets. It is safe
// for concurrent use: all mutable state is behind a mutex-protected
// decode-matrix cache.
type Encoder struct {
	k, m   int
	matrix *gf256.Matrix // n x k encoding matrix, top k x k identity
	parity *gf256.Matrix // m x k view of the parity rows

	mu    sync.Mutex
	cache map[string]*gf256.Matrix // decode matrices keyed by survivor row set
}

// New returns an Encoder for k data shards and m parity shards: the
// n x k Vandermonde matrix, systematised by multiplying with the inverse
// of its top k x k block.
func New(k, m int) (*Encoder, error) {
	if k < 1 || m < 0 || k+m > 256 {
		return nil, ErrInvalidParams
	}
	v := gf256.Vandermonde(k+m, k)
	topInv, err := v.SubMatrix(0, k, 0, k).Invert()
	if err != nil {
		return nil, fmt.Errorf("erasure: vandermonde top block singular: %w", err)
	}
	enc := v.Mul(topInv)
	e := &Encoder{
		k:      k,
		m:      m,
		matrix: enc,
		cache:  make(map[string]*gf256.Matrix),
	}
	if m > 0 {
		e.parity = enc.SubMatrix(k, k+m, 0, k)
	}
	return e, nil
}

// checkShards validates shard count and sizes. If allowNil, missing
// (nil or empty) shards are permitted and the size of present shards is
// returned.
func (e *Encoder) checkShards(shards [][]byte, allowNil bool) (size int, err error) {
	if len(shards) != e.k+e.m {
		return 0, fmt.Errorf("%w: got %d, want %d", errShardCount, len(shards), e.k+e.m)
	}
	for _, s := range shards {
		if len(s) == 0 {
			if !allowNil {
				return 0, errShardSize
			}
			continue
		}
		if size == 0 {
			size = len(s)
		} else if len(s) != size {
			return 0, errShardSize
		}
	}
	if size == 0 {
		return 0, errShardSize
	}
	return size, nil
}

// Encode computes the m parity shards from the first k data shards,
// writing them into shards[k:]. All n slots must be allocated with equal
// sizes.
func (e *Encoder) Encode(shards [][]byte) error {
	if _, err := e.checkShards(shards, false); err != nil {
		return err
	}
	if e.m == 0 {
		return nil
	}
	mulRows(e.parityRows(), shards[:e.k], shards[e.k:])
	return nil
}

// parityRows returns views of the m parity rows of the encoding matrix,
// the coefficient rows of an encode.
func (e *Encoder) parityRows() [][]byte {
	rows := make([][]byte, e.m)
	for r := range rows {
		rows[r] = e.parity.Row(r)
	}
	return rows
}

// Stream encodes an archive one stripe at a time, for a backup that must
// not hold it: a stripe is one chunk of every shard, and its k data
// chunks lie one after another in the buffer Data returns. Fill that,
// call Encode, store the n chunks it returns, fill the next. A Stream
// holds one stripe, data and parity, and nothing that grows with the
// archive; it is not safe for concurrent use.
type Stream struct {
	k      int
	chunk  int      // the longest chunk a stripe may have
	rows   [][]byte // the parity rows
	data   []byte   // the k data chunks of the stripe in hand
	parity []byte   // its m parity chunks
	shards [][]byte // what Encode returns: views of data and parity
}

// NewStream returns a Stream over stripes whose chunks have at most chunk
// bytes.
func (e *Encoder) NewStream(chunk int) (*Stream, error) {
	if chunk <= 0 {
		return nil, errShardSize
	}
	return &Stream{
		k:      e.k,
		chunk:  chunk,
		rows:   e.parityRows(),
		data:   make([]byte, e.k*chunk),
		parity: make([]byte, e.m*chunk),
		shards: make([][]byte, e.k+e.m),
	}, nil
}

// Data returns the buffer of the stripe's data: for a stripe of c-byte
// chunks, data chunk i is Data()[i*c : (i+1)*c]. It holds whatever the
// last stripe left in it.
func (s *Stream) Data() []byte { return s.data }

// Encode computes the parity of the stripe whose k data chunks of c bytes
// each are the first k*c bytes of Data, and returns the stripe's n chunks
// by shard index, data chunks first. They are views of the Stream's
// buffers and stay valid until Data is written to or Encode called again.
// The parity bytes are those Encoder.Encode computes for whole shards at
// the same byte positions.
func (s *Stream) Encode(c int) ([][]byte, error) {
	if c <= 0 || c > s.chunk {
		return nil, fmt.Errorf("%w: a stripe of %d-byte chunks in a stream made for %d", errShardSize, c, s.chunk)
	}
	for i := range s.shards {
		if i < s.k {
			s.shards[i] = s.data[i*c : (i+1)*c]
		} else {
			s.shards[i] = s.parity[(i-s.k)*c : (i-s.k+1)*c]
		}
	}
	mulRows(s.rows, s.shards[:s.k], s.shards[s.k:])
	return s.shards, nil
}

// Reconstruct fills in all missing shards (nil or zero-length entries)
// in place, both data and parity. At least k shards must be present.
func (e *Encoder) Reconstruct(shards [][]byte) error {
	return e.reconstruct(shards, false)
}

// ReconstructData fills in only the missing data shards, skipping the
// (cheaper) recomputation of missing parity. Use when the caller only
// needs to read the archive back.
func (e *Encoder) ReconstructData(shards [][]byte) error {
	return e.reconstruct(shards, true)
}

func (e *Encoder) reconstruct(shards [][]byte, dataOnly bool) error {
	size, err := e.checkShards(shards, true)
	if err != nil {
		return err
	}
	present := 0
	for _, s := range shards {
		if len(s) > 0 {
			present++
		}
	}
	if present == len(shards) {
		return nil
	}
	if present < e.k {
		return fmt.Errorf("%w: %d of %d present, need %d", ErrTooFewShards, present, e.k+e.m, e.k)
	}

	// Choose k surviving rows, preferring data shards (identity rows make
	// the decode matrix sparser and the common no-data-loss case free).
	rows := make([]int, 0, e.k)
	for i := 0; i < len(shards) && len(rows) < e.k; i++ {
		if len(shards[i]) > 0 {
			rows = append(rows, i)
		}
	}

	dataMissing := false
	for i := 0; i < e.k; i++ {
		if len(shards[i]) == 0 {
			dataMissing = true
			break
		}
	}

	if dataMissing {
		dec, err := e.decodeMatrix(rows)
		if err != nil {
			return err
		}
		// Each missing data shard d is dec.Row(d) . survivors.
		in := make([][]byte, e.k)
		for i, r := range rows {
			in[i] = shards[r]
		}
		fillMissing(shards[:e.k], dec, in, size)
	}

	if dataOnly {
		return nil
	}
	// All data shards now present; recompute any missing parity.
	fillMissing(shards[e.k:], e.parity, shards[:e.k], size)
	return nil
}

// fillMissing computes every missing (nil or empty) shard of slots, the
// i-th of which is row i of coef applied to in, allocating it unless
// the slot's capacity already holds size bytes.
func fillMissing(slots [][]byte, coef *gf256.Matrix, in [][]byte, size int) {
	var rows, out [][]byte
	for i := range slots {
		if len(slots[i]) == 0 {
			rows = append(rows, coef.Row(i))
			out = append(out, ensureShard(&slots[i], size))
		}
	}
	mulRows(rows, in, out)
}

// splitRows returns the first output row of the second half of a
// product of n rows: half the kernel's groups of 8 rows, rounded up, so
// that neither half regroups the rows; 0 below 16 rows, which are not
// split.
func splitRows(n int) int {
	if n < 16 {
		return 0
	}
	return (n + 15) / 16 * 8
}

// second is the helper that computes the second half of a product's
// rows: one goroutine for the whole process, started by the first
// product that is split and parked on its channel between products, so
// that a split costs no goroutine, no allocation and one hand-over each
// way. Nothing stops it: the package cannot know its last product, and
// an idle helper holds nothing but its stack.
var second struct {
	busy          sync.Mutex // held by the caller whose half it computes
	started       sync.Once
	coef, in, out [][]byte
	work, done    chan struct{}
}

func help() {
	for range second.work {
		gf256.MulRows(second.coef, second.in, second.out)
		second.done <- struct{}{}
	}
}

// mulRows is gf256.MulRows, with the rows from splitRows on computed by
// the helper while the caller computes the rest. A caller that finds the
// helper busy with another caller's half computes every row itself. The
// shapes must be valid, as gf256.MulRows demands: a half that panicked
// on the helper would take the process down.
func mulRows(coef, in, out [][]byte) {
	cut := splitRows(len(out))
	if cut == 0 || !second.busy.TryLock() {
		gf256.MulRows(coef, in, out)
		return
	}
	second.started.Do(func() {
		second.work, second.done = make(chan struct{}), make(chan struct{})
		go help()
	})
	second.coef, second.in, second.out = coef[cut:], in, out[cut:]
	second.work <- struct{}{}
	gf256.MulRows(coef[:cut], in, out[:cut])
	<-second.done
	second.coef, second.in, second.out = nil, nil, nil // hold none of the caller's buffers
	second.busy.Unlock()
}

func ensureShard(s *[]byte, size int) []byte {
	if cap(*s) >= size {
		*s = (*s)[:size]
	} else {
		*s = make([]byte, size)
	}
	return *s
}

// decodeMatrix returns the inverse of the submatrix formed by the given
// surviving rows of the encoding matrix, memoised per row set.
func (e *Encoder) decodeMatrix(rows []int) (*gf256.Matrix, error) {
	key := make([]byte, len(rows))
	for i, r := range rows {
		key[i] = byte(r)
	}
	e.mu.Lock()
	if m, ok := e.cache[string(key)]; ok {
		e.mu.Unlock()
		return m, nil
	}
	e.mu.Unlock()

	sub := e.matrix.SelectRows(rows)
	inv, err := sub.Invert()
	if err != nil {
		// Cannot happen for a valid construction; report loudly if it does.
		return nil, fmt.Errorf("erasure: survivor set %v not decodable: %w", rows, err)
	}

	e.mu.Lock()
	// Bound the cache; archive repair touches few distinct survivor sets,
	// but a long-lived encoder should not grow without limit.
	if len(e.cache) >= 1024 {
		for k := range e.cache {
			delete(e.cache, k)
			break
		}
	}
	e.cache[string(key)] = inv
	e.mu.Unlock()
	return inv, nil
}

// Split partitions data into k equally sized shards, padding the tail
// with zeros. The returned shards reference newly allocated memory.
// Use Join with the original length to undo.
func (e *Encoder) Split(data []byte) ([][]byte, error) {
	if len(data) == 0 {
		return nil, errShortData
	}
	shardSize := (len(data) + e.k - 1) / e.k
	shards := make([][]byte, e.k+e.m)
	backing := make([]byte, shardSize*(e.k+e.m))
	for i := range shards {
		shards[i] = backing[i*shardSize : (i+1)*shardSize]
	}
	for i := 0; i < e.k; i++ {
		lo := i * shardSize
		if lo >= len(data) {
			break
		}
		hi := lo + shardSize
		if hi > len(data) {
			hi = len(data)
		}
		copy(shards[i], data[lo:hi])
	}
	return shards, nil
}

// Join writes the original data of the given total size by concatenating
// the k data shards, dropping padding.
func (e *Encoder) Join(dst io.Writer, shards [][]byte, size int) error {
	if len(shards) < e.k {
		return errShardCount
	}
	remaining := size
	for i := 0; i < e.k && remaining > 0; i++ {
		s := shards[i]
		if len(s) == 0 {
			return fmt.Errorf("erasure: data shard %d missing in Join", i)
		}
		n := len(s)
		if n > remaining {
			n = remaining
		}
		if _, err := dst.Write(s[:n]); err != nil {
			return err
		}
		remaining -= n
	}
	if remaining > 0 {
		return errShortData
	}
	return nil
}
