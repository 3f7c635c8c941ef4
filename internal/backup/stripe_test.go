package backup

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"

	"p2pbackup/internal/erasure"
	"p2pbackup/internal/storage"
)

// encodeRefV2 is the version 2 encoding done the buffered way, written
// from the format's description and not from the encoder: the plaintext
// encrypted by one XORKeyStream, the sealed stream put together in one
// buffer, every stripe of it cut by Encoder.Split and encoded by
// Encoder.Encode. It shares subKeys and the field arithmetic with
// stripeWriter and nothing else.
func encodeRefV2(t testing.TB, params Params, key, iv, plaintext []byte) ([][]byte, *Manifest) {
	t.Helper()
	encKey, macKey := subKeys(key)
	block, err := aes.NewCipher(encKey)
	if err != nil {
		t.Fatal(err)
	}
	stream := append([]byte(nil), iv...)
	stream = append(stream, plaintext...)
	cipher.NewCTR(block, iv).XORKeyStream(stream[ivSize:], plaintext)

	k := params.DataBlocks
	width := k * (8 << 10)
	var sealed []byte
	stripes := 0
	for rest := stream; len(rest) > 0; stripes++ {
		part := rest[:min(width-tagSize, len(rest))]
		rest = rest[len(part):]
		mac := hmac.New(sha256.New, macKey)
		mac.Write(iv)
		binary.Write(mac, binary.BigEndian, uint64(stripes))
		if len(rest) == 0 {
			mac.Write([]byte{1})
		} else {
			mac.Write([]byte{0})
		}
		mac.Write(part)
		sealed = mac.Sum(append(sealed, part...))
	}

	enc, err := erasure.New(k, params.ParityBlocks)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([][]byte, params.Total())
	for off := 0; off < len(sealed); off += width {
		shards, err := enc.Split(sealed[off:min(off+width, len(sealed))])
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(shards); err != nil {
			t.Fatal(err)
		}
		for i, s := range shards {
			blocks[i] = append(blocks[i], s...)
		}
	}
	m := &Manifest{Version: 2, ID: sha256.Sum256(sealed), SealedSize: len(sealed), Stripes: stripes, Params: params}
	for _, b := range blocks {
		m.BlockIDs = append(m.BlockIDs, storage.IDOf(b))
	}
	return blocks, m
}

// sealedSizes returns plaintext sizes whose version 2 sealed streams sit
// on and around every boundary of the layout at k data blocks: one byte,
// a chunk, a stripe, a last stripe that holds one byte and its tag, whole
// stripes, and three stripes and a little.
func sealedSizes(k int) []int {
	const chunk = 8 << 10
	width := k * chunk
	var sizes []int
	for _, sealed := range []int{
		ivSize + 1 + tagSize,
		chunk - 1, chunk, chunk + 1,
		width - 1, width, // one full stripe, and one byte short of it
		width + tagSize + 1, width + tagSize + 2, // the shortest second stripes
		3 * width, 3*width + tagSize + 5,
	} {
		stripes := (sealed-1)/width + 1
		sizes = append(sizes, sealed-ivSize-stripes*tagSize)
	}
	return sizes
}

// The streamed encoder must produce, block for block and field for
// field, what the buffered reference produces from the format's
// description: blocks are content addressed, so one differing byte
// orphans a repository.
func TestStreamedEncodeMatchesBuffered(t *testing.T) {
	id := testIdentity(t)
	key, iv := testBytes(3, SessionKeySize), testBytes(4, ivSize)
	type shape struct {
		params Params
		sizes  []int
	}
	small := []int{1, 2, 3, 4, 5, 15, 16, 17, 31, 32, 33, 100, 255, 256, 257, 300}
	shapes := []shape{
		{Params{DataBlocks: 4, ParityBlocks: 4}, append(small, sealedSizes(4)...)},
		{Params{DataBlocks: 5, ParityBlocks: 3}, append(small, sealedSizes(5)...)},
		{Params{DataBlocks: 1, ParityBlocks: 1}, sealedSizes(1)},
		{DefaultParams(), []int{1, 63, 64, 128*64 - sealOverhead, 128 * 9000, 128*(8<<10) - sealOverhead, 128*(8<<10) - sealOverhead + 1, 128*(32<<10) + 12345}},
	}
	for _, sh := range shapes {
		for _, size := range sh.sizes {
			name := fmt.Sprintf("%d+%d/%d", sh.params.DataBlocks, sh.params.ParityBlocks, size)
			plaintext := testBytes(uint64(size), size)
			want, wantM := encodeRefV2(t, sh.params, key, iv, plaintext)
			// The two halves of a stripe's blocks are put at once; the byte
			// comparison below holds each block's chunks to stripe order.
			got := make([][]byte, sh.params.Total())
			var puts atomic.Int64
			m, err := encodeStream(sh.params, known(id), key, iv, int64(size),
				func(w io.Writer) error { return writeInPieces(w, plaintext) }, "described",
				func(i int, chunk []byte) error {
					puts.Add(1)
					if len(chunk) > 8<<10 {
						return fmt.Errorf("a chunk of %d bytes", len(chunk))
					}
					got[i] = append(got[i], chunk...)
					return nil
				})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if n := puts.Load(); n != int64(wantM.Stripes*sh.params.Total()) {
				t.Fatalf("%s: %d chunks put, want %d stripes of %d", name, n, wantM.Stripes, sh.params.Total())
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: block %d differs from the buffered encode", name, i)
				}
				if m.BlockIDs[i] != wantM.BlockIDs[i] {
					t.Fatalf("%s: block id %d differs", name, i)
				}
			}
			if m.Version != 2 || m.ID != wantM.ID || m.SealedSize != wantM.SealedSize || m.Stripes != wantM.Stripes || m.Params != wantM.Params || m.Description != "described" {
				t.Fatalf("%s: manifest v%d %v/%d/%d/%v, want v2 %v/%d/%d/%v", name, m.Version, m.ID, m.SealedSize, m.Stripes, m.Params, wantM.ID, wantM.SealedSize, wantM.Stripes, wantM.Params)
			}
			if got, err := UnwrapKey(id, m.WrappedKey); err != nil || !bytes.Equal(got, key) {
				t.Fatalf("%s: wrapped key does not unwrap to the session key: %v", name, err)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if size, _ := m.blockSize(); size != len(want[0]) {
				t.Fatalf("%s: the manifest makes blocks %d bytes, they have %d", name, size, len(want[0]))
			}
		}
	}
}

// The parity rows and the block puts of a stripe are split between two
// goroutines; on one core or two, the same key and iv make the same
// blocks and the same manifest, byte for byte.
func TestEncodeStreamSameOnOneCoreAndTwo(t *testing.T) {
	id := testIdentity(t)
	key, iv := testBytes(7, SessionKeySize), testBytes(8, ivSize)
	params := DefaultParams()
	plaintext := testBytes(9, 2*128*stripeChunk+12345) // three stripes, the last ragged
	encode := func(procs int) ([][]byte, *Manifest) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		blocks := make([][]byte, params.Total())
		m, err := encodeStream(params, known(id), key, iv, int64(len(plaintext)),
			func(w io.Writer) error { return writeInPieces(w, plaintext) }, "procs",
			func(i int, chunk []byte) error { blocks[i] = append(blocks[i], chunk...); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if got, err := UnwrapKey(id, m.WrappedKey); err != nil || !bytes.Equal(got, key) {
			t.Fatalf("GOMAXPROCS=%d: the wrapped key does not unwrap to the session key: %v", procs, err)
		}
		m.WrappedKey = nil // wrapping draws randomness of its own
		return blocks, m
	}
	oneBlocks, one := encode(1)
	twoBlocks, two := encode(2)
	if one.Stripes != 3 {
		t.Fatalf("%d stripes, want 3", one.Stripes)
	}
	for i := range oneBlocks {
		if !bytes.Equal(oneBlocks[i], twoBlocks[i]) {
			t.Fatalf("block %d differs between GOMAXPROCS=1 and 2", i)
		}
	}
	a, err := json.Marshal(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(two)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("the manifest differs between GOMAXPROCS=1 and 2:\n%s\n%s", a, b)
	}
}

// Any k of the n blocks restore a striped archive, at every boundary of
// the layout, to the plaintext the version 1 oracle decodes to.
func TestStripedArchiveEverySurvivorSet(t *testing.T) {
	id := testIdentity(t)
	params := Params{DataBlocks: 4, ParityBlocks: 4}
	key, iv := testBytes(5, SessionKeySize), testBytes(6, ivSize)
	wrapped, err := WrapKey(id.Public(), key)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range sealedSizes(4) {
		plaintext := testBytes(uint64(size), size)
		blocks := make([][]byte, params.Total())
		m, err := encodeStream(params, known(id), key, iv, int64(size),
			func(w io.Writer) error { _, err := w.Write(plaintext); return err }, "",
			func(i int, chunk []byte) error { blocks[i] = append(blocks[i], chunk...); return nil })
		if err != nil {
			t.Fatal(err)
		}
		v1Blocks, v1 := encodeRef(t, params, key, iv, plaintext)
		v1.WrappedKey = wrapped
		if stored, old := 8*len(blocks[0]), 8*len(v1Blocks[0]); stored > old+8*(m.Stripes*tagSize/4+1) {
			t.Errorf("size %d: version 2 stores %d bytes, version 1 %d: more than the tags", size, stored, old)
		}

		sets := 0
		for mask := 0; mask < 1<<8; mask++ {
			survivors := make([][]byte, 8)
			old := make([][]byte, 8)
			n := 0
			for i := range survivors {
				if mask&(1<<i) != 0 {
					survivors[i], old[i] = blocks[i], v1Blocks[i]
					n++
				}
			}
			if n != 4 {
				continue
			}
			sets++
			got, err := DecodeArchive(m, id, survivors)
			if err != nil || !bytes.Equal(got, plaintext) {
				t.Fatalf("size %d, survivors %08b: restored %d bytes, %v", size, mask, len(got), err)
			}
			if size < 100_000 || mask == 0b11110000 { // the oracle's decode of every set once is enough at the large sizes
				want, err := DecodeArchive(v1, id, old)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("size %d, survivors %08b: differs from what the version 1 archive decodes to (%v)", size, mask, err)
				}
			}
		}
		if sets != 70 {
			t.Fatalf("%d survivor sets, want C(8,4) = 70", sets)
		}
	}
}

// stripedArchive is a version 2 archive held in memory whose stripes a
// test moves about, with the manifest an attacker would forge to go with
// the result: block ids, sealed size and stripe count all agree with the
// blocks as they now are.
type stripedArchive struct {
	id        *Identity
	m         *Manifest
	blocks    [][]byte
	plaintext []byte
}

func newStripedArchive(t testing.TB, id *Identity, params Params, key, iv []byte, size int) *stripedArchive {
	t.Helper()
	a := &stripedArchive{id: id, plaintext: testBytes(uint64(size)+uint64(iv[0]), size), blocks: make([][]byte, params.Total())}
	var err error
	a.m, err = encodeStream(params, known(id), key, iv, int64(size),
		func(w io.Writer) error { _, err := w.Write(a.plaintext); return err }, "",
		func(i int, chunk []byte) error { a.blocks[i] = append(a.blocks[i], chunk...); return nil })
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// forge returns a copy of the archive whose blocks are what edit makes of
// them (it gets block i's chunks, one per stripe, and returns those to
// keep) under a manifest that describes them.
func (a *stripedArchive) forge(edit func(i int, chunks [][]byte) [][]byte) *stripedArchive {
	out := &stripedArchive{id: a.id, plaintext: a.plaintext, blocks: make([][]byte, len(a.blocks))}
	m := *a.m
	m.BlockIDs = make([]storage.BlockID, len(a.blocks))
	lay, _ := a.m.layout()
	width := lay.k * stripeChunk
	for i, b := range a.blocks {
		var chunks [][]byte
		for off := 0; off < len(b); off += stripeChunk {
			chunks = append(chunks, b[off:min(off+stripeChunk, len(b))])
		}
		chunks = edit(i, chunks)
		for _, c := range chunks {
			out.blocks[i] = append(out.blocks[i], c...)
		}
		m.BlockIDs[i] = storage.IDOf(out.blocks[i])
		m.Stripes = len(chunks)
		m.SealedSize = len(chunks) * width
		if len(chunks[len(chunks)-1]) < stripeChunk { // the short last stripe, wherever it went
			m.SealedSize += lay.last - width
		}
	}
	out.m = &m
	return out
}

// released reads the archive through a stripeReader over its first k
// blocks and returns the plaintext that came out before the error.
func (a *stripedArchive) released(t testing.TB) ([]byte, error) {
	t.Helper()
	readers := make([]io.ReaderAt, len(a.blocks))
	for i := range readers[:a.m.Params.DataBlocks] {
		readers[i+1] = bytes.NewReader(a.blocks[i+1]) // blocks 1..k: one parity block among them
	}
	r, err := newStripeReader(a.m, a.id, readers)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	_, err = out.ReadFrom(r)
	return out.Bytes(), err
}

// Stripes moved, replayed, cut off or added under a manifest forged to
// match must fail at the first stripe that is not where it was sealed,
// and not a byte of that stripe or a later one may have been released.
func TestStripeTampering(t *testing.T) {
	id := testIdentity(t)
	params := Params{DataBlocks: 3, ParityBlocks: 2}
	key := testBytes(7, SessionKeySize)
	const perStripe = 3*stripeChunk - tagSize // sealed bytes a full stripe authenticates
	size := 3*perStripe + 1000 - ivSize       // three full stripes and a short fourth
	a := newStripedArchive(t, id, params, key, testBytes(8, ivSize), size)
	// Another archive of the same owner, under the same session key even,
	// and one under a key of its own, as every archive really has.
	other := newStripedArchive(t, id, params, key, testBytes(9, ivSize), size)
	foreign := newStripedArchive(t, id, params, testBytes(10, SessionKeySize), testBytes(8, ivSize), size)
	if a.m.Stripes != 4 {
		t.Fatalf("%d stripes, want 4", a.m.Stripes)
	}
	if got, err := a.released(t); err != nil || !bytes.Equal(got, a.plaintext) {
		t.Fatalf("untouched archive: %d bytes, %v", len(got), err)
	}
	full := func(short []byte) []byte {
		return append(append([]byte(nil), short...), make([]byte, stripeChunk-len(short))...)
	}
	cases := []struct {
		name   string
		intact int // stripes released before the failure
		forged *stripedArchive
	}{
		{"last stripe cut off", 2, a.forge(func(_ int, c [][]byte) [][]byte { return c[:3] })},
		{"two stripes cut off", 1, a.forge(func(_ int, c [][]byte) [][]byte { return c[:2] })},
		{"stripes 1 and 2 swapped", 1, a.forge(func(_ int, c [][]byte) [][]byte { return [][]byte{c[0], c[2], c[1], c[3]} })},
		{"stripe 1 replayed from another archive", 1, a.forge(func(i int, c [][]byte) [][]byte {
			return [][]byte{c[0], other.blocks[i][stripeChunk : 2*stripeChunk], c[2], c[3]}
		})},
		{"stripe 0 replayed from another archive", 0, a.forge(func(i int, c [][]byte) [][]byte {
			return [][]byte{foreign.blocks[i][:stripeChunk], c[1], c[2], c[3]}
		})},
		{"stripe 2 twice", 3, a.forge(func(_ int, c [][]byte) [][]byte { return [][]byte{c[0], c[1], c[2], c[2], c[3]} })},
		{"a stripe after the last", 3, a.forge(func(_ int, c [][]byte) [][]byte { return [][]byte{c[0], c[1], c[2], full(c[3]), c[3]} })},
		{"last stripe alone", 0, a.forge(func(_ int, c [][]byte) [][]byte { return [][]byte{c[3]} })},
	}
	for _, c := range cases {
		if err := c.forged.m.Validate(); err != nil {
			t.Fatalf("%s: the forged manifest does not even validate: %v", c.name, err)
		}
		got, err := c.forged.released(t)
		if !errors.Is(err, ErrDecrypt) {
			t.Errorf("%s: err = %v, want ErrDecrypt", c.name, err)
		}
		want := a.plaintext[:max(0, c.intact*perStripe-ivSize)]
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes released before the failure, want the %d of the %d stripes before it", c.name, len(got), len(want), c.intact)
		}
		if got, err := DecodeArchive(c.forged.m, id, append([][]byte(nil), c.forged.blocks...)); err == nil || got != nil {
			t.Errorf("%s: DecodeArchive returned %d bytes, %v", c.name, len(got), err)
		}
	}

	// Fields that lie about an untouched archive.
	for name, lie := range map[string]func(m *Manifest){
		"one stripe fewer":     func(m *Manifest) { m.Stripes-- },
		"one stripe more":      func(m *Manifest) { m.Stripes++ },
		"no stripe count":      func(m *Manifest) { m.Stripes = 0 },
		"version 1":            func(m *Manifest) { m.Version = 0 },
		"version 3":            func(m *Manifest) { m.Version = 3 },
		"a byte shorter":       func(m *Manifest) { m.SealedSize-- },
		"a byte longer":        func(m *Manifest) { m.SealedSize++ },
		"a stripe longer":      func(m *Manifest) { m.SealedSize += 3 * stripeChunk; m.Stripes++ },
		"ends inside a tag":    func(m *Manifest) { m.SealedSize = 3*3*stripeChunk + 7 },
		"another archive's id": func(m *Manifest) { m.ID = other.m.ID },
	} {
		m := *a.m
		lie(&m)
		got, err := DecodeArchive(&m, id, append([][]byte(nil), a.blocks...))
		if err == nil || got != nil {
			t.Errorf("manifest with %s: DecodeArchive returned %d bytes, %v", name, len(got), err)
		}
	}
}
