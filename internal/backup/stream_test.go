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
	"sync/atomic"
	"testing"

	"p2pbackup/internal/erasure"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/storage"
)

// sealRef is Seal written out once more, under a given iv: one
// XORKeyStream and one MAC over one buffer. It and encodeRef are the
// version 1 oracle: what an archive was before it was cut into stripes,
// and what the plaintext a striped archive decodes to is held to.
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

// encodeRef is EncodeArchive as it was for version 1: the whole sealed
// archive, Split's copy of it, Encode over all n shards. The manifest
// lacks the wrapped key.
func encodeRef(t testing.TB, params Params, key, iv, plaintext []byte) ([][]byte, *Manifest) {
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

func TestEncodeStreamChecksAnnouncedSize(t *testing.T) {
	id := testIdentity(t)
	key, iv := testBytes(5, SessionKeySize), testBytes(6, ivSize)
	params := Params{DataBlocks: 3, ParityBlocks: 2}
	drop := func(int, []byte) error { return nil }
	for _, written := range []int{99, 101} {
		_, err := encodeStream(params, known(id), key, iv, 100,
			func(w io.Writer) error { _, err := w.Write(make([]byte, written)); return err }, "", drop)
		if err == nil {
			t.Fatalf("a body of %d bytes passed for the 100 announced", written)
		}
	}
	stop := errors.New("store full")
	_, err := encodeStream(params, known(id), key, iv, 100,
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
	m, files, size, err := EncodeDir(params, known(id), root, "tree", func(i int, chunk []byte) error {
		blocks[i] = append(blocks[i], chunk...)
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
	if _, _, _, err := EncodeDir(params, known(id), t.TempDir(), "", nil); !errors.Is(err, ErrEmptyArchive) {
		t.Fatalf("empty tree: err = %v, want ErrEmptyArchive", err)
	}
}

// A file that changes between the listing and its read must fail the
// backup by name: its size is already in the tar header and in the
// sealed size.
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
				"a-first.bin": testBytes(9, 40_000),
				"z-last.txt":  testBytes(10, 100),
			})
			victim := filepath.Join(root, "z-last.txt")
			var puts atomic.Int64
			// The first stripe of four 8 KiB chunks fills while a-first.bin
			// streams, long before z-last.txt is opened.
			_, _, _, err := EncodeDir(Params{DataBlocks: 4, ParityBlocks: 4}, known(id), root, "", func(i int, _ []byte) error {
				if puts.Add(1) == 1 {
					return change(victim)
				}
				return nil
			})
			if !errors.Is(err, ErrSourceChanged) || !strings.Contains(err.Error(), "z-last.txt") {
				t.Fatalf("err = %v, want ErrSourceChanged naming z-last.txt", err)
			}
			if n := puts.Load(); n != 8 {
				t.Fatalf("%d chunks were put before the failure, want the first stripe's 8 of 16", n)
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
// else; it must never size an allocation on its own word, in a manifest
// of either version.
func TestDecodeArchiveRejectsLyingSealedSize(t *testing.T) {
	id := testIdentity(t)
	params := Params{DataBlocks: 4, ParityBlocks: 4}
	plaintext := []byte("eleven byte")
	blocks, m, err := EncodeArchive(params, id, plaintext, "")
	if err != nil {
		t.Fatal(err)
	}
	key, err := UnwrapKey(id, m.WrappedKey)
	if err != nil {
		t.Fatal(err)
	}
	v1Blocks, v1 := encodeRef(t, params, key, testBytes(12, ivSize), plaintext)
	v1.WrappedKey = m.WrappedKey
	for _, c := range []struct {
		m      *Manifest
		blocks [][]byte
	}{{m, blocks}, {v1, v1Blocks}} {
		m, blocks := c.m, c.blocks
		honest := m.SealedSize // 59 in both versions: four shards of 15
		if honest != 59 {
			t.Fatalf("version %d seals 11 bytes to %d, want 59", m.Version, honest)
		}
		for _, lie := range []int{1 << 46, 1<<63 - 1, 1, 56, 61, honest - 1, honest + 1} {
			m.SealedSize = lie
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := DecodeArchive(m, id, append([][]byte(nil), blocks...))
			runtime.ReadMemStats(&after)
			// A striped archive whose size is off by less than a chunk's
			// rounding still has blocks of the right length: its one
			// stripe's tag is then looked for in the wrong place.
			if !errors.Is(err, ErrManifest) && !(m.Version == 2 && errors.Is(err, ErrDecrypt)) || got != nil {
				t.Fatalf("version %d, sealed size %d for %d: err = %v, want ErrManifest", m.Version, lie, honest, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("version %d, sealed size %d: allocated %d bytes before refusing", m.Version, lie, got)
			}
		}
		m.SealedSize = honest
		if got, err := DecodeArchive(m, id, blocks); err != nil || !bytes.Equal(got, plaintext) {
			t.Fatalf("version %d, honest again: %q, %v", m.Version, got, err)
		}
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
	// gather picks up to k of the blocks have says can be had, as
	// DecodeArchive and DecodeDir do, and returns them by index.
	gather := func(have func(i int) bool) (blocks [][]byte, found int) {
		asked = asked[:0]
		blocks = make([][]byte, len(m.BlockIDs))
		found = m.pick(k, func(i int, id storage.BlockID) bool {
			asked = append(asked, i)
			if id != m.BlockIDs[i] {
				t.Fatalf("block %d asked for under another block's id", i)
			}
			if !have(i) {
				return false
			}
			blocks[i] = all[i]
			return true
		})
		return blocks, found
	}
	decodes := func(blocks [][]byte) error {
		got, err := DecodeArchive(m, id, blocks)
		if err == nil && !bytes.Equal(got, plaintext) {
			t.Fatal("decoded another plaintext")
		}
		return err
	}

	// Everything present: exactly the k data blocks are read.
	blocks, found := gather(func(int) bool { return true })
	if found != k || len(asked) != k || asked[0] != 0 || asked[k-1] != k-1 {
		t.Fatalf("intact archive: %d found from %d reads ending at block %d, want %d data blocks", found, len(asked), asked[len(asked)-1], k)
	}
	if err := decodes(blocks); err != nil {
		t.Fatal(err)
	}

	// A block among the first k that cannot be had intact is made up for
	// by the next one in line.
	blocks, found = gather(func(i int) bool { return i != 5 })
	if found != k || len(asked) != k+1 || blocks[5] != nil || blocks[k] == nil || blocks[k+1] != nil {
		t.Fatalf("one data block bad: %d found from %d reads", found, len(asked))
	}
	if err := decodes(blocks); err != nil {
		t.Fatal(err)
	}

	// k-1 good blocks: all n are asked for, and the decode refuses.
	blocks, found = gather(func(i int) bool { return i%2 == 0 && i != 0 })
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

// blockFiles keeps an archive's blocks in files, as a repository would,
// so that a test measuring what the pipeline holds does not hold them
// itself.
type blockFiles []*os.File

func newBlockFiles(t testing.TB, n int) blockFiles {
	t.Helper()
	dir := t.TempDir()
	files := make(blockFiles, n)
	for i := range files {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("block-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		files[i] = f
	}
	return files
}

// What the live data path holds at the paper's shape is one stripe and
// does not grow with the archive: the live heap, sampled at every stripe
// of a 16 MiB tree in both directions, stays under 8 MiB. Before the
// archive was cut into stripes a backup held the parity (1.1 times the
// archive) and a restore one sealed buffer next to k blocks (2 times).
func TestLivePathAllocations(t *testing.T) {
	id := testIdentity(t)
	const limit = 8 << 20
	sums := map[string][sha256.Size]byte{}
	files := map[string][]byte{}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("dir%d/file%02d.bin", i%3, i)
		files[name] = testBytes(uint64(20+i), 1<<20)
		sums[name] = sha256.Sum256(files[name])
	}
	root := writeTree(t, files)
	files = nil

	var base runtime.MemStats
	peak := uint64(0)
	start := func() {
		runtime.GC()
		runtime.ReadMemStats(&base)
		peak = 0
	}
	sample := func() {
		var now runtime.MemStats
		runtime.ReadMemStats(&now)
		if now.HeapAlloc > base.HeapAlloc {
			peak = max(peak, now.HeapAlloc-base.HeapAlloc)
		}
	}

	stored := newBlockFiles(t, 256)
	start()
	m, _, _, err := EncodeDir(DefaultParams(), known(id), root, "", func(i int, chunk []byte) error {
		if i == 0 {
			sample()
		}
		_, err := stored[i].Write(chunk)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stripes < 16 {
		t.Fatalf("%d stripes: the tree is too small to tell a stripe from the archive", m.Stripes)
	}
	if peak > limit {
		t.Errorf("backing up %d sealed bytes in %d stripes held %d bytes of heap, want at most %d", m.SealedSize, m.Stripes, peak, limit)
	}
	t.Logf("backup: %d stripes, peak live heap %d KiB", m.Stripes, peak>>10)

	// The restore's worst case: only the parity blocks survive.
	dst := t.TempDir()
	start()
	restored, blocks, err := DecodeDir(m, id, dst, func(i int, _ storage.BlockID) io.ReaderAt {
		if i < 128 {
			return nil
		}
		if i == 128 {
			return sampledReader{stored[i], sample}
		}
		return stored[i]
	})
	if err != nil || restored != len(sums) || blocks != 128 {
		t.Fatalf("DecodeDir = %d files from %d blocks, %v", restored, blocks, err)
	}
	if peak > limit {
		t.Errorf("restoring %d sealed bytes in %d stripes held %d bytes of heap, want at most %d", m.SealedSize, m.Stripes, peak, limit)
	}
	t.Logf("restore: peak live heap %d KiB", peak>>10)
	for name, want := range sums {
		data, err := os.ReadFile(filepath.Join(dst, filepath.FromSlash(name)))
		if err != nil || sha256.Sum256(data) != want {
			t.Fatalf("%s restored with other content (%v)", name, err)
		}
	}
}

// sampledReader calls sample before every read: once per stripe, when it
// is one of the k blocks a stripeReader reads.
type sampledReader struct {
	io.ReaderAt
	sample func()
}

func (r sampledReader) ReadAt(p []byte, off int64) (int, error) {
	r.sample()
	return r.ReaderAt.ReadAt(p, off)
}
