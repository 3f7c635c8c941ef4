package backup

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"p2pbackup/internal/erasure"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/storage"
)

// sealRef is Seal as it was before the pipeline streamed, under a given
// iv: one XORKeyStream and one MAC over one buffer. It shares nothing
// with sealer but subKeys.
func sealRef(key, iv, plaintext []byte) []byte {
	encKey, macKey := subKeys(key)
	block, err := aes.NewCipher(encKey)
	if err != nil {
		panic(err)
	}
	out := make([]byte, ivSize+len(plaintext)+tagSize)
	copy(out, iv)
	cipher.NewCTR(block, iv).XORKeyStream(out[ivSize:ivSize+len(plaintext)], plaintext)
	mac := hmac.New(sha256.New, macKey)
	mac.Write(out[:ivSize+len(plaintext)])
	copy(out[ivSize+len(plaintext):], mac.Sum(nil))
	return out
}

// encodeRef is EncodeArchive as it was: the whole sealed archive, Split's
// copy of it, Encode over all n shards.
func encodeRef(t *testing.T, params Params, key, iv, plaintext []byte) ([][]byte, *Manifest) {
	t.Helper()
	sealed := sealRef(key, iv, plaintext)
	enc, err := erasure.New(params.DataBlocks, params.ParityBlocks)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := enc.Split(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(shards); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{ID: sha256.Sum256(sealed), SealedSize: len(sealed), Params: params}
	for _, s := range shards {
		m.BlockIDs = append(m.BlockIDs, storage.IDOf(s))
	}
	return shards, m
}

func testBytes(seed uint64, n int) []byte {
	r := rng.New(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

// writeInPieces writes p in pieces of growing, odd sizes, so that the
// stages' own buffers are crossed at every alignment.
func writeInPieces(w io.Writer, p []byte) error {
	for n := 1; len(p) > 0; n = n*3 + 1 {
		n = min(n, len(p))
		if _, err := w.Write(p[:n]); err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

func TestSealMatchesOneShot(t *testing.T) {
	key, iv := testBytes(1, SessionKeySize), testBytes(2, ivSize)
	for _, size := range []int{0, 1, 15, 16, 17, 32<<10 - 1, 32 << 10, 32<<10 + 1, 100_000} {
		plaintext := testBytes(uint64(size), size)
		got, err := seal(key, iv, plaintext)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, sealRef(key, iv, plaintext)) {
			t.Fatalf("size %d: the streamed seal differs from the one-shot seal", size)
		}
		if cap(got) != len(got) {
			t.Fatalf("size %d: sealed into a buffer of %d for %d bytes", size, cap(got), len(got))
		}
	}
}

// The streamed encoder must produce, block for block and field for
// field, what Seal + Split + Encode produced: blocks are content
// addressed, so one differing byte orphans a repository.
func TestStreamedEncodeMatchesBuffered(t *testing.T) {
	id := testIdentity(t)
	key, iv := testBytes(3, SessionKeySize), testBytes(4, ivSize)
	type shape struct {
		params Params
		sizes  []int
	}
	var small []int // every alignment of tag, shard boundary and padding
	for n := 1; n <= 300; n++ {
		small = append(small, n)
	}
	const k, s = 128, 64
	shapes := []shape{
		{Params{DataBlocks: 4, ParityBlocks: 4}, small},
		{Params{DataBlocks: 5, ParityBlocks: 3}, small},
		{DefaultParams(), []int{
			1,        // 49 sealed bytes: shards of one byte, 79 of them all padding
			s - 1, s, // around one shard
			k*s - sealOverhead - 1,      // one byte of padding
			k*s - sealOverhead,          // no padding
			k*s - sealOverhead + 1,      // shards one byte longer, the last nearly empty
			(k-1)*s + 16 - sealOverhead, // the tag straddles the last shard boundary
			16*s - sealOverhead, 17 * s, // around the first batch of shards
			k * 9000,                          // shards longer than a kernel chunk
			k*(32<<10) + 12345 - sealOverhead, // shards longer than the sealer's buffer
		}},
	}
	for _, sh := range shapes {
		for _, size := range sh.sizes {
			name := fmt.Sprintf("%d+%d/%d", sh.params.DataBlocks, sh.params.ParityBlocks, size)
			plaintext := testBytes(uint64(size), size)
			want, wantM := encodeRef(t, sh.params, key, iv, plaintext)
			next := 0
			m, err := encodeStream(sh.params, id, key, iv, int64(size),
				func(w io.Writer) error { return writeInPieces(w, plaintext) }, "described",
				func(i int, block []byte) error {
					if i != next {
						t.Fatalf("%s: block %d put, want %d", name, i, next)
					}
					next++
					if !bytes.Equal(block, want[i]) {
						t.Fatalf("%s: block %d differs from the buffered encode", name, i)
					}
					return nil
				})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if next != sh.params.Total() {
				t.Fatalf("%s: %d blocks put, want %d", name, next, sh.params.Total())
			}
			if m.ID != wantM.ID || m.SealedSize != wantM.SealedSize || m.Params != wantM.Params || m.Description != "described" {
				t.Fatalf("%s: manifest %v/%d/%v, want %v/%d/%v", name, m.ID, m.SealedSize, m.Params, wantM.ID, wantM.SealedSize, wantM.Params)
			}
			for i := range wantM.BlockIDs {
				if m.BlockIDs[i] != wantM.BlockIDs[i] {
					t.Fatalf("%s: block id %d differs", name, i)
				}
			}
			if got, err := UnwrapKey(id, m.WrappedKey); err != nil || !bytes.Equal(got, key) {
				t.Fatalf("%s: wrapped key does not unwrap to the session key: %v", name, err)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestEncodeStreamChecksAnnouncedSize(t *testing.T) {
	id := testIdentity(t)
	key, iv := testBytes(5, SessionKeySize), testBytes(6, ivSize)
	params := Params{DataBlocks: 3, ParityBlocks: 2}
	drop := func(int, []byte) error { return nil }
	for _, written := range []int{99, 101} {
		_, err := encodeStream(params, id, key, iv, 100,
			func(w io.Writer) error { _, err := w.Write(make([]byte, written)); return err }, "", drop)
		if err == nil {
			t.Fatalf("a body of %d bytes passed for the 100 announced", written)
		}
	}
	stop := errors.New("store full")
	_, err := encodeStream(params, id, key, iv, 100,
		func(w io.Writer) error { _, err := w.Write(make([]byte, 100)); return err }, "",
		func(i int, _ []byte) error {
			if i == 1 {
				return stop
			}
			return nil
		})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the put error", err)
	}
}

// writeTree writes files (path -> content) under a fresh directory.
func writeTree(t *testing.T, files map[string][]byte) string {
	t.Helper()
	root := t.TempDir()
	for rel, data := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o640); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestEncodeDirMatchesCollectPack(t *testing.T) {
	id := testIdentity(t)
	// Path order differs from directory order here: "a.txt" < "a/b".
	root := writeTree(t, map[string][]byte{
		"a/b":           testBytes(7, 70_000),
		"a.txt":         []byte("alpha"),
		"empty":         nil,
		"deep/er/still": testBytes(8, 300_000),
	})
	entries, err := CollectDir(root)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PackFiles(entries)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{DataBlocks: 6, ParityBlocks: 3}
	blocks := make([][]byte, params.Total())
	m, files, size, err := EncodeDir(params, id, root, "tree", func(i int, block []byte) error {
		blocks[i] = bytes.Clone(block)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files != 4 || size != int64(len(want)) {
		t.Fatalf("EncodeDir reports %d files, %d bytes; want 4, %d", files, size, len(want))
	}
	copy(blocks, make([][]byte, 3)) // restore needs the parity
	got, err := DecodeArchive(m, id, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the streamed tree's plaintext differs from PackFiles(CollectDir)")
	}
	if _, _, _, err := EncodeDir(params, id, t.TempDir(), "", nil); !errors.Is(err, ErrEmptyArchive) {
		t.Fatalf("empty tree: err = %v, want ErrEmptyArchive", err)
	}
}

// A file that changes between the listing and its read must fail the
// backup by name: its size is already in the tar header and in the
// shard size.
func TestEncodeDirSourceChanges(t *testing.T) {
	id := testIdentity(t)
	cases := map[string]func(path string) error{
		"grows":    func(p string) error { return appendTo(p, []byte("more")) },
		"shrinks":  func(p string) error { return os.Truncate(p, 10) },
		"vanishes": os.Remove,
	}
	for name, change := range cases {
		t.Run(name, func(t *testing.T) {
			root := writeTree(t, map[string][]byte{
				"a-first.bin": testBytes(9, 8000),
				"z-last.txt":  testBytes(10, 100),
			})
			victim := filepath.Join(root, "z-last.txt")
			puts := 0
			// The first data shard fills while a-first.bin streams, long
			// before z-last.txt is opened.
			_, _, _, err := EncodeDir(Params{DataBlocks: 4, ParityBlocks: 4}, id, root, "", func(i int, _ []byte) error {
				if puts++; i == 0 {
					return change(victim)
				}
				return nil
			})
			if !errors.Is(err, ErrSourceChanged) || !strings.Contains(err.Error(), "z-last.txt") {
				t.Fatalf("err = %v, want ErrSourceChanged naming z-last.txt", err)
			}
			if puts == 0 || puts >= 8 {
				t.Fatalf("%d blocks were put before the failure, want some and not all", puts)
			}
		})
	}
}

func appendTo(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The sealed size is read from a master block that came from somewhere
// else; it must never size an allocation on its own word.
func TestDecodeArchiveRejectsLyingSealedSize(t *testing.T) {
	id := testIdentity(t)
	blocks, m, err := EncodeArchive(Params{DataBlocks: 4, ParityBlocks: 4}, id, []byte("eleven byte"), "")
	if err != nil {
		t.Fatal(err)
	}
	honest := m.SealedSize // 59: four shards of 15
	for _, lie := range []int{1 << 46, 1<<63 - 1, 1, 56, 61, honest - 1, honest + 1} {
		m.SealedSize = lie
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeArchive(m, id, append([][]byte(nil), blocks...))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrManifest) {
			t.Fatalf("sealed size %d for %d: err = %v, want ErrManifest", lie, honest, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("sealed size %d: allocated %d bytes before refusing", lie, got)
		}
	}
	m.SealedSize = honest
	if _, err := DecodeArchive(m, id, blocks); err != nil {
		t.Fatal(err)
	}
}

func TestGatherStopsAtLimitDataFirst(t *testing.T) {
	id := testIdentity(t)
	plaintext := testBytes(11, 5000)
	all, m, err := EncodeArchive(DefaultParams(), id, plaintext, "")
	if err != nil {
		t.Fatal(err)
	}
	const k = 128
	var asked []int
	from := func(have func(i int) bool) func(int, storage.BlockID) []byte {
		asked = asked[:0]
		return func(i int, id storage.BlockID) []byte {
			asked = append(asked, i)
			if id != m.BlockIDs[i] {
				t.Fatalf("block %d asked for under another block's id", i)
			}
			if !have(i) {
				return nil
			}
			return all[i]
		}
	}
	decodes := func(blocks [][]byte) error {
		got, err := DecodeArchive(m, id, blocks)
		if err == nil && !bytes.Equal(got, plaintext) {
			t.Fatal("decoded another plaintext")
		}
		return err
	}

	// Everything present: exactly the k data blocks are read.
	blocks, found := m.Gather(k, from(func(int) bool { return true }))
	if found != k || len(asked) != k || asked[0] != 0 || asked[k-1] != k-1 {
		t.Fatalf("intact archive: %d found from %d reads ending at block %d, want %d data blocks", found, len(asked), asked[len(asked)-1], k)
	}
	if err := decodes(blocks); err != nil {
		t.Fatal(err)
	}

	// A block among the first k that cannot be had intact is made up for
	// by the next one in line.
	blocks, found = m.Gather(k, from(func(i int) bool { return i != 5 }))
	if found != k || len(asked) != k+1 || blocks[5] != nil || blocks[k] == nil || blocks[k+1] != nil {
		t.Fatalf("one data block bad: %d found from %d reads", found, len(asked))
	}
	if err := decodes(blocks); err != nil {
		t.Fatal(err)
	}

	// k-1 good blocks: all n are asked for, and the decode refuses.
	blocks, found = m.Gather(k, from(func(i int) bool { return i%2 == 0 && i != 0 }))
	if found != k-1 || len(asked) != 2*k {
		t.Fatalf("k-1 good blocks: %d found from %d reads, want %d from %d", found, len(asked), k-1, 2*k)
	}
	if err := decodes(blocks); !errors.Is(err, ErrTooFewBlocks) {
		t.Fatalf("k-1 good blocks: err = %v, want ErrTooFewBlocks", err)
	}
}

func TestUnpackFilesSlicesTheArchive(t *testing.T) {
	packed, err := PackFiles(sampleEntries())
	if err != nil {
		t.Fatal(err)
	}
	files, err := UnpackFiles(packed)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !within(packed, f.Data) {
			t.Fatalf("%s: content was copied out of the archive", f.Path)
		}
		if cap(f.Data) != len(f.Data) {
			t.Fatalf("%s: an append to the content would overwrite the archive", f.Path)
		}
	}
}

// TotalAlloc pins on the live data path at the paper's shape: a backup
// holds the parity and a batch of shards, a restore one sealed buffer.
// Before the pipeline streamed these read 5.1 and 4.1 times the archive.
func TestLivePathAllocations(t *testing.T) {
	id := testIdentity(t)
	files := map[string][]byte{}
	for i := 0; i < 16; i++ {
		files[fmt.Sprintf("dir%d/file%02d.bin", i%3, i)] = testBytes(uint64(20+i), 1<<20)
	}
	root := writeTree(t, files)
	measure := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	// The restore's worst case: only the parity blocks survive.
	parity := make([][]byte, 256)
	var stored *Manifest
	encode := measure(func() {
		var err error
		stored, _, _, err = EncodeDir(DefaultParams(), id, root, "", func(i int, block []byte) error {
			if i >= 128 {
				parity[i] = bytes.Clone(block)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	// The parity kept here is the caller's, as a store's copy would be.
	encode -= uint64(128 * stored.shardSize())
	if limit := uint64(stored.SealedSize) * 16 / 10; encode > limit {
		t.Errorf("backing up %d sealed bytes allocated %d, want at most %d (1.6x)", stored.SealedSize, encode, limit)
	}

	var entries []FileEntry
	decode := measure(func() {
		plaintext, err := DecodeArchive(stored, id, parity)
		if err != nil {
			t.Fatal(err)
		}
		if entries, err = UnpackFiles(plaintext); err != nil {
			t.Fatal(err)
		}
	})
	if limit := uint64(stored.SealedSize) * 12 / 10; decode > limit {
		t.Errorf("restoring %d sealed bytes allocated %d beyond the blocks passed in, want at most %d (1.2x)", stored.SealedSize, decode, limit)
	}
	for _, e := range entries {
		if !bytes.Equal(e.Data, files[e.Path]) {
			t.Fatalf("%s restored with other content", e.Path)
		}
	}
	if len(entries) != len(files) {
		t.Fatalf("restored %d files, want %d", len(entries), len(files))
	}
}
