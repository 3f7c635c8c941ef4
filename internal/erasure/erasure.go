// Package erasure implements systematic Reed-Solomon erasure coding over
// GF(2^8), the redundancy scheme the backup system stores archives with.
//
// An archive is split into k data shards; m parity shards are computed so
// that ANY k of the n = k+m shards reconstruct the original data. This is
// the property the paper relies on: storing n blocks on n distinct peers
// tolerates m peer failures (compare replication, where doubling storage
// only tolerates one failure per copy).
//
// The encoding matrix is systematic (the first k rows are the identity,
// so data shards are stored verbatim). Two constructions are offered:
// a systematised Vandermonde matrix (the classic Reed-Solomon form) and
// a Cauchy matrix (every square submatrix invertible by construction).
// Both guarantee that any k rows form an invertible matrix, which is
// exactly the any-k-of-n recovery property.
//
// Encode, Verify and Reconstruct work on a full set of n shards in
// memory. Stream encodes an archive one stripe (one chunk of every
// shard) at a time, for a backup that must not hold its archive, and
// produces the same parity bytes as Encode; ReconstructData over the
// chunks of one stripe is its counterpart on the way back.
package erasure

import (
	"bytes"
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
	ErrShardCount    = errors.New("erasure: wrong number of shards")
	ErrShardSize     = errors.New("erasure: shards must be non-empty and all the same size")
	ErrShortData     = errors.New("erasure: data too short")
)

// MatrixKind selects the parity construction.
type MatrixKind int

const (
	// Vandermonde uses the classic Reed-Solomon generator matrix,
	// systematised by multiplying with the inverse of its top k x k block.
	Vandermonde MatrixKind = iota
	// Cauchy uses an identity block on top of a Cauchy parity block.
	Cauchy
)

// String returns the construction's lower-case name, the form CLI flags
// and manifests spell it in.
func (k MatrixKind) String() string {
	switch k {
	case Vandermonde:
		return "vandermonde"
	case Cauchy:
		return "cauchy"
	default:
		return fmt.Sprintf("MatrixKind(%d)", int(k))
	}
}

// Encoder encodes and reconstructs Reed-Solomon shard sets. It is safe
// for concurrent use: all mutable state is behind a mutex-protected
// decode-matrix cache.
type Encoder struct {
	k, m   int
	kind   MatrixKind
	matrix *gf256.Matrix // n x k encoding matrix, top k x k identity
	parity *gf256.Matrix // m x k view of the parity rows

	mu    sync.Mutex
	cache map[string]*gf256.Matrix // decode matrices keyed by survivor row set
}

// New returns an Encoder for k data shards and m parity shards using the
// Vandermonde construction.
func New(k, m int) (*Encoder, error) { return NewKind(k, m, Vandermonde) }

// NewKind returns an Encoder with an explicit matrix construction.
func NewKind(k, m int, kind MatrixKind) (*Encoder, error) {
	if k < 1 || m < 0 || k+m > 256 {
		return nil, ErrInvalidParams
	}
	var enc *gf256.Matrix
	switch kind {
	case Vandermonde:
		v := gf256.Vandermonde(k+m, k)
		top := v.SubMatrix(0, k, 0, k)
		topInv, err := top.Invert()
		if err != nil {
			return nil, fmt.Errorf("erasure: vandermonde top block singular: %w", err)
		}
		enc = v.Mul(topInv)
	case Cauchy:
		enc = gf256.NewMatrix(k+m, k)
		for i := 0; i < k; i++ {
			enc.Set(i, i, 1)
		}
		if m > 0 {
			c := gf256.Cauchy(m, k)
			for r := 0; r < m; r++ {
				copy(enc.Row(k+r), c.Row(r))
			}
		}
	default:
		return nil, fmt.Errorf("erasure: unknown matrix kind %v", kind)
	}
	e := &Encoder{
		k:      k,
		m:      m,
		kind:   kind,
		matrix: enc,
		cache:  make(map[string]*gf256.Matrix),
	}
	if m > 0 {
		e.parity = enc.SubMatrix(k, k+m, 0, k)
	}
	return e, nil
}

// DataShards returns k.
func (e *Encoder) DataShards() int { return e.k }

// ParityShards returns m.
func (e *Encoder) ParityShards() int { return e.m }

// TotalShards returns n = k + m.
func (e *Encoder) TotalShards() int { return e.k + e.m }

// Kind returns the matrix construction in use.
func (e *Encoder) Kind() MatrixKind { return e.kind }

// checkShards validates shard count and sizes. If allowNil, missing
// (nil or empty) shards are permitted and the size of present shards is
// returned.
func (e *Encoder) checkShards(shards [][]byte, allowNil bool) (size int, err error) {
	if len(shards) != e.k+e.m {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), e.k+e.m)
	}
	for _, s := range shards {
		if len(s) == 0 {
			if !allowNil {
				return 0, ErrShardSize
			}
			continue
		}
		if size == 0 {
			size = len(s)
		} else if len(s) != size {
			return 0, ErrShardSize
		}
	}
	if size == 0 {
		return 0, ErrShardSize
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
	gf256.MulRows(e.parityRows(), shards[:e.k], shards[e.k:])
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
		return nil, ErrShardSize
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
		return nil, fmt.Errorf("%w: a stripe of %d-byte chunks in a stream made for %d", ErrShardSize, c, s.chunk)
	}
	for i := range s.shards {
		if i < s.k {
			s.shards[i] = s.data[i*c : (i+1)*c]
		} else {
			s.shards[i] = s.parity[(i-s.k)*c : (i-s.k+1)*c]
		}
	}
	gf256.MulRows(s.rows, s.shards[:s.k], s.shards[s.k:])
	return s.shards, nil
}

// verifyChunk is the number of bytes of each shard Verify recomputes
// and compares at a time: large enough to amortise the kernel's table
// builds, small enough that the scratch parity is m chunks and not m
// shards and that a mismatch is found without encoding the rest.
const verifyChunk = 8 << 10

// Verify recomputes parity from the data shards and reports whether the
// stored parity shards match.
func (e *Encoder) Verify(shards [][]byte) (bool, error) {
	size, err := e.checkShards(shards, false)
	if err != nil {
		return false, err
	}
	if e.m == 0 {
		return true, nil
	}
	rows := e.parityRows()
	n := min(size, verifyChunk)
	backing := make([]byte, e.m*n)
	scratch := make([][]byte, e.m)
	in := make([][]byte, e.k)
	for off := 0; off < size; off += n {
		end := min(off+n, size)
		for c := range in {
			in[c] = shards[c][off:end]
		}
		for r := range scratch {
			scratch[r] = backing[r*n : r*n+end-off]
		}
		gf256.MulRows(rows, in, scratch)
		for r, want := range scratch {
			if !bytes.Equal(want, shards[e.k+r][off:end]) {
				return false, nil
			}
		}
	}
	return true, nil
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
	gf256.MulRows(rows, in, out)
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
		return nil, ErrShortData
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
		return ErrShardCount
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
		return ErrShortData
	}
	return nil
}
