package backup

import (
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"

	"p2pbackup/internal/erasure"
)

// Manifest version 2: the archive in stripes.
//
// The sealed stream is iv || ciphertext with a tag after every
// k*stripeChunk - tagSize bytes of it and after the last byte, so that
// it reads as stripes of k*stripeChunk bytes, each ending in the tag over
// what precedes it in the stripe, and a last stripe that may be shorter.
// Stripe j is cut into k chunks of stripeChunk bytes (the last stripe
// into k chunks of a k-th of its length, rounded up, the tail padded with
// zeros), m parity chunks are computed from them, and chunk i of every
// stripe, in stripe order, is block i. A block is therefore as long as in
// version 1 plus its share of the tags, and any k blocks still restore
// the archive, but the bytes of one stripe are enough to check, decrypt
// and release that stripe: neither side holds more than a stripe.
//
// The tag of stripe j is HMAC-SHA256, under the session key's MAC subkey,
// of iv || j (8 bytes, big endian) || 1 for the last stripe, else 0 ||
// the stripe's bytes before the tag. A stripe moved to another place,
// taken from another archive, cut off the end or added after it does not
// verify. Manifest.ID is still the SHA-256 of the whole sealed stream,
// tags included and padding not; both sides compute it as the stream
// passes.

// stripeChunk is the number of bytes of each block in one stripe. It is
// the chunk gf256.MulRows works in, so a stripe is one pass of the
// kernel; being part of the format it is fixed here, whatever the kernel
// does later.
const stripeChunk = 8 << 10

// layout is the geometry of a version 2 archive.
type layout struct {
	k       int
	stripes int
	last    int // sealed bytes in the last stripe, its tag included
}

// planLayout returns the layout of an archive of size plaintext bytes
// and the length of its sealed stream.
func planLayout(k int, size int64) (lay layout, sealed int64) {
	body := int64(k*stripeChunk - tagSize)
	stripes := (ivSize + size + body - 1) / body
	sealed = ivSize + size + stripes*tagSize
	return layout{k: k, stripes: int(stripes), last: int(sealed - (stripes-1)*int64(k*stripeChunk))}, sealed
}

// layout returns the geometry the manifest's sealed size implies, or
// ErrManifest if no archive has that size or the stripe count differs.
func (m *Manifest) layout() (layout, error) {
	width := m.Params.DataBlocks * stripeChunk
	lay := layout{k: m.Params.DataBlocks, stripes: (m.SealedSize-1)/width + 1}
	lay.last = m.SealedSize - (lay.stripes-1)*width
	least := tagSize + 1 // a stripe has at least one byte to authenticate
	if lay.stripes == 1 {
		least += ivSize
	}
	if lay.last < least {
		return lay, fmt.Errorf("%w: no archive seals to %d bytes", ErrManifest, m.SealedSize)
	}
	if lay.stripes != m.Stripes {
		return lay, fmt.Errorf("%w: %d stripes recorded, a sealed size of %d makes %d", ErrManifest, m.Stripes, m.SealedSize, lay.stripes)
	}
	return lay, nil
}

// sealed returns the length of stripe j in the sealed stream.
func (l layout) sealed(j int) int {
	if j < l.stripes-1 {
		return l.k * stripeChunk
	}
	return l.last
}

// chunk returns the bytes of each block that stripe j holds.
func (l layout) chunk(j int) int {
	if j < l.stripes-1 {
		return stripeChunk
	}
	return (l.last-1)/l.k + 1
}

// blockSize returns the length of every block.
func (l layout) blockSize() int { return (l.stripes-1)*stripeChunk + l.chunk(l.stripes-1) }

// stripeMAC computes stripe tags under one archive's MAC key and iv.
type stripeMAC struct {
	mac hash.Hash
	iv  []byte
}

// sum appends the tag of stripe j, whose bytes before the tag are body,
// to dst.
func (s *stripeMAC) sum(dst []byte, j int, last bool, body []byte) []byte {
	var pos [9]byte
	binary.BigEndian.PutUint64(pos[:], uint64(j))
	if last {
		pos[8] = 1
	}
	s.mac.Reset()
	s.mac.Write(s.iv)
	s.mac.Write(pos[:])
	s.mac.Write(body)
	return s.mac.Sum(dst)
}

// stripeWriter is the encoding half: the plaintext written to it leaves
// as the archive's blocks, a stripe's n chunks at a time.
type stripeWriter struct {
	lay    layout
	stream *erasure.Stream
	ctr    cipher.Stream
	tags   stripeMAC
	index  int         // the stripe being filled
	fill   int         // sealed bytes of it so far
	id     hash.Hash   // over the sealed stream
	blocks []hash.Hash // over each block
	put    func(i int, chunk []byte) error
}

func newStripeWriter(params Params, key, iv []byte, lay layout, put func(i int, chunk []byte) error) (*stripeWriter, error) {
	block, macKey, err := sessionCipher(key)
	if err != nil {
		return nil, err
	}
	enc, err := erasure.New(params.DataBlocks, params.ParityBlocks)
	if err != nil {
		return nil, err
	}
	w := &stripeWriter{
		lay:    lay,
		ctr:    cipher.NewCTR(block, iv),
		tags:   stripeMAC{mac: hmac.New(sha256.New, macKey), iv: iv},
		id:     sha256.New(),
		blocks: make([]hash.Hash, params.Total()),
		put:    put,
	}
	if w.stream, err = enc.NewStream(lay.chunk(0)); err != nil {
		return nil, err
	}
	for i := range w.blocks {
		w.blocks[i] = sha256.New()
	}
	w.fill = copy(w.stream.Data(), iv)
	return w, nil
}

func (w *stripeWriter) Write(p []byte) (int, error) {
	for rest := p; len(rest) > 0; {
		if w.index == w.lay.stripes {
			return 0, errors.New("backup: archive stream is longer than announced")
		}
		room := w.lay.sealed(w.index) - tagSize
		n := min(room-w.fill, len(rest))
		w.ctr.XORKeyStream(w.stream.Data()[w.fill:w.fill+n], rest[:n])
		w.fill += n
		rest = rest[n:]
		if w.fill == room {
			if err := w.flush(); err != nil {
				return 0, err
			}
		}
	}
	return len(p), nil
}

// flush tags the stripe in hand, encodes it and puts its chunks.
func (w *stripeWriter) flush() error {
	j, data := w.index, w.stream.Data()
	sealed := w.tags.sum(data[:w.fill], j, j == w.lay.stripes-1, data[:w.fill])
	w.id.Write(sealed)
	c := w.lay.chunk(j)
	clear(data[len(sealed) : w.lay.k*c])
	chunks, err := w.stream.Encode(c)
	if err != nil {
		return err
	}
	// The two halves of the blocks are hashed and put at once.
	half := len(chunks) / 2
	var (
		wg    sync.WaitGroup
		errHi error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errHi = w.putChunks(chunks, half, len(chunks))
	}()
	err = w.putChunks(chunks, 0, half)
	wg.Wait()
	if err != nil {
		return err
	}
	if errHi != nil {
		return errHi
	}
	w.index, w.fill = j+1, 0
	return nil
}

// putChunks hashes and puts the stripe's chunks of blocks lo..hi-1, in
// block order, up to the first error.
func (w *stripeWriter) putChunks(chunks [][]byte, lo, hi int) error {
	for i := lo; i < hi; i++ {
		w.blocks[i].Write(chunks[i])
		if err := w.put(i, chunks[i]); err != nil {
			return err
		}
	}
	return nil
}

// finish fills in what the manifest says about the stream: its hash, its
// stripe count and the hash of every block.
func (w *stripeWriter) finish(m *Manifest) error {
	if w.index != w.lay.stripes {
		return errors.New("backup: archive stream ended short of what was announced")
	}
	w.id.Sum(m.ID[:0])
	m.Stripes = w.lay.stripes
	for i, h := range w.blocks {
		h.Sum(m.BlockIDs[i][:0])
	}
	return nil
}

// stripeReader is the decoding half: an io.Reader of the archive's
// plaintext that reads k blocks a stripe at a time, reconstructs the
// stripe's missing data chunks, checks its tag and only then decrypts
// it. The read that would return io.EOF returns an error instead unless
// the manifest's stripe count and hash are those of the stream that
// passed.
type stripeReader struct {
	m      *Manifest
	lay    layout
	enc    *erasure.Encoder
	blocks []io.ReaderAt // by index; nil for the blocks not read
	block  cipher.Block
	ctr    cipher.Stream // set by the first stripe, which holds the iv
	tags   stripeMAC
	id     hash.Hash
	data   []byte   // the stripe in hand: k chunks
	parity []byte   // the chunks of the parity blocks read
	shards [][]byte // ReconstructData's view of both
	index  int      // the next stripe
	plain  []byte   // decrypted bytes of the stripe in hand not yet read
	err    error    // what every further Read returns
}

// newStripeReader reads the archive from blocks, of which exactly k must
// be non-nil.
func newStripeReader(m *Manifest, owner *Identity, blocks []io.ReaderAt) (*stripeReader, error) {
	lay, err := m.layout()
	if err != nil {
		return nil, err
	}
	key, err := UnwrapKey(owner, m.WrappedKey)
	if err != nil {
		return nil, err
	}
	r := &stripeReader{m: m, lay: lay, blocks: blocks, id: sha256.New()}
	var macKey []byte
	if r.block, macKey, err = sessionCipher(key); err != nil {
		return nil, err
	}
	r.tags.mac = hmac.New(sha256.New, macKey)
	if r.enc, err = erasure.New(lay.k, m.Params.ParityBlocks); err != nil {
		return nil, err
	}
	parity := 0
	for _, b := range blocks[lay.k:] {
		if b != nil {
			parity++
		}
	}
	r.data = make([]byte, lay.k*lay.chunk(0))
	r.parity = make([]byte, parity*lay.chunk(0))
	r.shards = make([][]byte, len(blocks))
	return r, nil
}

func (r *stripeReader) Read(p []byte) (int, error) {
	for len(r.plain) == 0 && r.err == nil {
		if r.index < r.lay.stripes {
			r.err = r.next()
		} else if ArchiveID(r.id.Sum(nil)) != r.m.ID {
			r.err = fmt.Errorf("%w: archive hash mismatch", ErrManifest)
		} else {
			r.err = io.EOF
		}
	}
	if len(r.plain) == 0 {
		return 0, r.err
	}
	n := copy(p, r.plain)
	r.plain = r.plain[n:]
	return n, nil
}

// next reads, reconstructs, authenticates and decrypts the next stripe.
func (r *stripeReader) next() error {
	j, k := r.index, r.lay.k
	c, off := r.lay.chunk(j), int64(j)*stripeChunk
	parity := 0
	for i, b := range r.blocks {
		switch {
		case b == nil && i < k:
			r.shards[i] = r.data[i*c : i*c : (i+1)*c] // for ReconstructData to fill in place
			continue
		case b == nil:
			r.shards[i] = nil
			continue
		case i < k:
			r.shards[i] = r.data[i*c : (i+1)*c]
		default:
			r.shards[i] = r.parity[parity*c : (parity+1)*c]
			parity++
		}
		if n, err := b.ReadAt(r.shards[i], off); n < c {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("backup: block %d at stripe %d: %w", i, j, err)
		}
	}
	if err := r.enc.ReconstructData(r.shards); err != nil {
		return err
	}
	sealed := r.data[:r.lay.sealed(j)]
	body, tag := sealed[:len(sealed)-tagSize], sealed[len(sealed)-tagSize:]
	if j == 0 {
		r.tags.iv = append([]byte(nil), body[:ivSize]...)
	}
	var want [tagSize]byte
	if !hmac.Equal(tag, r.tags.sum(want[:0], j, j == r.lay.stripes-1, body)) {
		return fmt.Errorf("%w: stripe %d of %d", ErrDecrypt, j, r.lay.stripes)
	}
	r.id.Write(sealed)
	if j == 0 {
		r.ctr = cipher.NewCTR(r.block, r.tags.iv)
		body = body[ivSize:]
	}
	r.ctr.XORKeyStream(body, body)
	r.plain = body
	r.index++
	return nil
}
