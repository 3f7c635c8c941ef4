package backup

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"p2pbackup/internal/rng"
)

func testIdentity(t *testing.T) *Identity {
	t.Helper()
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func sampleEntries() []FileEntry {
	now := time.Date(2026, 6, 10, 12, 0, 0, 0, time.UTC)
	return []FileEntry{
		{Path: "docs/notes.txt", Mode: 0o644, ModTime: now, Data: []byte("some notes")},
		{Path: "photos/cat.raw", Mode: 0o600, ModTime: now, Data: bytes.Repeat([]byte{1, 2, 3}, 1000)},
		{Path: "empty.txt", Mode: 0o644, ModTime: now, Data: nil},
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	entries := sampleEntries()
	packed, err := PackFiles(entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnpackFiles(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	// PackFiles sorts by path.
	wantOrder := []string{"docs/notes.txt", "empty.txt", "photos/cat.raw"}
	for i, w := range wantOrder {
		if got[i].Path != w {
			t.Fatalf("order[%d] = %q, want %q", i, got[i].Path, w)
		}
	}
	for _, e := range got {
		for _, orig := range entries {
			if orig.Path == e.Path && !bytes.Equal(orig.Data, e.Data) {
				t.Fatalf("%s content mismatch", e.Path)
			}
		}
	}
}

func TestPackSizesBufferOnce(t *testing.T) {
	// Nanosecond mtimes force a PAX header per entry, the largest
	// per-entry overhead PackFiles' estimate has to cover. A buffer that
	// had to double on the way would end with far more slack than the
	// estimate's own.
	mtime := time.Date(2026, 6, 10, 12, 0, 0, 123456789, time.UTC)
	var entries []FileEntry
	for i := 0; i < 64; i++ {
		entries = append(entries, FileEntry{
			Path:    filepath.Join("dir", string(rune('a'+i%26)), "file"+string(rune('0'+i%10))+string(rune('a'+i/10))),
			Mode:    0o644,
			ModTime: mtime,
			Data:    bytes.Repeat([]byte{byte(i)}, 1000*i+1),
		})
	}
	packed, err := PackFiles(entries)
	if err != nil {
		t.Fatal(err)
	}
	if slack := cap(packed) - len(packed); slack > 512*len(entries) {
		t.Fatalf("packed %d bytes into a %d-byte buffer: it grew past the one-shot estimate", len(packed), cap(packed))
	}
	got, err := UnpackFiles(packed)
	if err != nil || len(got) != len(entries) {
		t.Fatalf("UnpackFiles = %d entries, %v; want %d", len(got), err, len(entries))
	}
}

func TestUnpackRejectsOversizedHeader(t *testing.T) {
	// A header claiming a terabyte over a few bytes of content must be
	// refused before anything of that size is allocated.
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	if err := tw.WriteHeader(&tar.Header{Name: "huge", Mode: 0o644, Size: 1 << 40, Format: tar.FormatPAX}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write([]byte("not a terabyte")); err != nil {
		t.Fatal(err)
	}
	// No Close: the writer would refuse the short entry; the bytes
	// written so far are the malformed archive.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnpackFiles(buf.Bytes())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("UnpackFiles accepted an entry larger than the archive")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("UnpackFiles allocated %d bytes before rejecting a %d-byte archive", got, buf.Len())
	}
}

func TestPackDeterministic(t *testing.T) {
	a, err := PackFiles(sampleEntries())
	if err != nil {
		t.Fatal(err)
	}
	// Same entries in a different order pack identically.
	rev := sampleEntries()
	rev[0], rev[2] = rev[2], rev[0]
	b, err := PackFiles(rev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("packing is order-sensitive")
	}
}

func TestPackValidation(t *testing.T) {
	if _, err := PackFiles(nil); !errors.Is(err, ErrEmptyArchive) {
		t.Fatal("empty archive accepted")
	}
	if _, err := PackFiles([]FileEntry{{Path: ""}}); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, err := UnpackFiles([]byte("not a tar")); err == nil {
		t.Fatal("garbage tar accepted")
	}
}

func TestCollectWriteDir(t *testing.T) {
	src := t.TempDir()
	if err := os.MkdirAll(filepath.Join(src, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "a.txt"), []byte("alpha"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "sub", "b.txt"), []byte("beta"), 0o600); err != nil {
		t.Fatal(err)
	}
	then := time.Date(2019, 3, 4, 5, 6, 7, 0, time.UTC)
	if err := os.Chtimes(filepath.Join(src, "sub", "b.txt"), then, then); err != nil {
		t.Fatal(err)
	}
	entries, err := CollectDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("collected %d entries", len(entries))
	}
	dst := t.TempDir()
	if err := WriteDir(dst, entries); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		path := filepath.Join(dst, filepath.FromSlash(e.Path))
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, e.Data) {
			t.Fatalf("%s content mismatch after restore", e.Path)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode().Perm() != e.Mode || !info.ModTime().Truncate(time.Second).Equal(e.ModTime.Truncate(time.Second)) {
			t.Fatalf("%s restored as %v modified %v, was %v modified %v", e.Path, info.Mode().Perm(), info.ModTime(), e.Mode, e.ModTime)
		}
	}
	if info, _ := os.Stat(filepath.Join(dst, "sub", "b.txt")); !info.ModTime().Equal(then) {
		t.Fatalf("sub/b.txt restored with modification time %v, want %v", info.ModTime(), then)
	}
	// Empty dir fails.
	if _, err := CollectDir(t.TempDir()); !errors.Is(err, ErrEmptyArchive) {
		t.Fatal("empty dir accepted")
	}
}

func TestWriteDirRejectsEscapes(t *testing.T) {
	dst := t.TempDir()
	for _, p := range []string{"../evil", "/abs/path", "a/../../evil", "..", "a/../.."} {
		err := WriteDir(dst, []FileEntry{{Path: p, Data: []byte("x")}})
		if !errors.Is(err, ErrUnsafePath) {
			t.Fatalf("path %q: err = %v, want ErrUnsafePath", p, err)
		}
	}
}

// Names that merely begin with two dots are names like any other: what a
// backup accepts, every way back must accept too.
func TestDotDotNamesRoundTrip(t *testing.T) {
	id := testIdentity(t)
	files := map[string][]byte{
		"..cache/x":    []byte("cached"),
		"..hidden":     []byte("hidden"),
		"a/..b/...":    []byte("dots"),
		"plain/..rc.d": nil,
	}
	src := writeTree(t, files)
	check := func(how, dst string) {
		t.Helper()
		for name, want := range files {
			got, err := os.ReadFile(filepath.Join(dst, filepath.FromSlash(name)))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: %s came back as %q, %v", how, name, got, err)
			}
		}
	}

	entries, err := CollectDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	if err := WriteDir(dst, entries); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	check("WriteDir", dst)

	params := Params{DataBlocks: 2, ParityBlocks: 1}
	blocks := make([][]byte, params.Total())
	m, _, _, err := EncodeDir(params, known(id), src, "", func(i int, chunk []byte) error {
		blocks[i] = append(blocks[i], chunk...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dst = t.TempDir()
	if _, _, err := DecodeDir(m, id, dst, readersOf(blocks)); err != nil {
		t.Fatalf("DecodeDir: %v", err)
	}
	check("DecodeDir", dst)
}

func TestSealOpenRoundTrip(t *testing.T) {
	key, err := NewSessionKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 1, 15, 16, 17, 1000} {
		plaintext := bytes.Repeat([]byte{0xAB}, size)
		sealed, err := Seal(key, plaintext)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(sealed, []byte{0xAB, 0xAB, 0xAB, 0xAB, 0xAB, 0xAB, 0xAB, 0xAB}) && size >= 8 {
			t.Fatal("sealed output leaks plaintext runs")
		}
		got, err := Open(key, sealed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, plaintext) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	key, _ := NewSessionKey()
	sealed, err := Seal(key, []byte("attack at dawn"))
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, ivSize + 2, len(sealed) - 1} {
		tampered := append([]byte(nil), sealed...)
		tampered[idx] ^= 1
		if _, err := Open(key, tampered); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("tamper at %d: err = %v, want ErrDecrypt", idx, err)
		}
	}
	// Wrong key.
	other, _ := NewSessionKey()
	if _, err := Open(other, sealed); !errors.Is(err, ErrDecrypt) {
		t.Fatal("wrong key accepted")
	}
	// Truncated.
	if _, err := Open(key, sealed[:10]); !errors.Is(err, ErrDecrypt) {
		t.Fatal("truncated input accepted")
	}
	// Bad key length.
	if _, err := Seal([]byte("short"), []byte("x")); err == nil {
		t.Fatal("short key accepted by Seal")
	}
	if _, err := Open([]byte("short"), sealed); err == nil {
		t.Fatal("short key accepted by Open")
	}
}

func TestKeyWrapRoundTrip(t *testing.T) {
	id := testIdentity(t)
	key, _ := NewSessionKey()
	wrapped, err := WrapKey(id.Public(), key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnwrapKey(id, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, key) {
		t.Fatal("unwrapped key differs")
	}
	// A different identity cannot unwrap.
	other := testIdentity(t)
	if _, err := UnwrapKey(other, wrapped); err == nil {
		t.Fatal("foreign identity unwrapped the key")
	}
}

func TestEncodeDecodeArchive(t *testing.T) {
	id := testIdentity(t)
	params := Params{DataBlocks: 8, ParityBlocks: 4}
	plaintext, _ := PackFiles(sampleEntries())
	blocks, m, err := EncodeArchive(params, id, plaintext, "test archive")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 12 || len(m.BlockIDs) != 12 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	if m.Description != "test archive" {
		t.Fatal("description lost")
	}
	// Lose m random blocks: restore still works.
	r := rng.New(1)
	lost := r.Perm(12)[:4]
	available := make([][]byte, 12)
	copy(available, blocks)
	for _, i := range lost {
		available[i] = nil
	}
	got, err := DecodeArchive(m, id, available)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plaintext) {
		t.Fatal("restored archive differs")
	}
	files, err := UnpackFiles(got)
	if err != nil || len(files) != 3 {
		t.Fatalf("unpack after restore: %v", err)
	}
}

func TestDecodeArchiveErrors(t *testing.T) {
	id := testIdentity(t)
	params := Params{DataBlocks: 4, ParityBlocks: 2}
	plaintext := []byte("small archive content")
	blocks, m, err := EncodeArchive(params, id, plaintext, "")
	if err != nil {
		t.Fatal(err)
	}
	// Too few blocks.
	tooFew := make([][]byte, 6)
	copy(tooFew, blocks[:3])
	if _, err := DecodeArchive(m, id, tooFew); !errors.Is(err, ErrTooFewBlocks) {
		t.Fatalf("err = %v, want ErrTooFewBlocks", err)
	}
	// Corrupted block detected by hash.
	bad := make([][]byte, 6)
	copy(bad, blocks)
	bad[2] = append([]byte(nil), bad[2]...)
	bad[2][0] ^= 1
	if _, err := DecodeArchive(m, id, bad); !errors.Is(err, ErrBlockHash) {
		t.Fatalf("err = %v, want ErrBlockHash", err)
	}
	// Wrong slot count.
	if _, err := DecodeArchive(m, id, blocks[:5]); !errors.Is(err, ErrManifest) {
		t.Fatalf("err = %v, want ErrManifest", err)
	}
	// Wrong identity fails at unwrap.
	other := testIdentity(t)
	full := make([][]byte, 6)
	copy(full, blocks)
	if _, err := DecodeArchive(m, other, full); err == nil {
		t.Fatal("foreign identity restored the archive")
	}
	// Empty plaintext rejected at encode.
	if _, _, err := EncodeArchive(params, id, nil, ""); !errors.Is(err, ErrEmptyArchive) {
		t.Fatal("empty archive accepted")
	}
	// Invalid params rejected.
	if _, _, err := EncodeArchive(Params{DataBlocks: 0, ParityBlocks: 1}, id, plaintext, ""); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestManifestMarshalRoundTrip(t *testing.T) {
	id := testIdentity(t)
	_, m, err := EncodeArchive(Params{DataBlocks: 3, ParityBlocks: 2}, id, []byte("data"), "d")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || got.SealedSize != m.SealedSize || len(got.BlockIDs) != len(m.BlockIDs) {
		t.Fatal("manifest round trip mismatch")
	}
	if _, err := UnmarshalManifest([]byte("{")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := UnmarshalManifest([]byte("{}")); err == nil {
		t.Fatal("empty manifest accepted")
	}
}

func TestMasterBlockRoundTrip(t *testing.T) {
	id := testIdentity(t)
	_, m1, err := EncodeArchive(Params{DataBlocks: 3, ParityBlocks: 2}, id, []byte("archive one"), "one")
	if err != nil {
		t.Fatal(err)
	}
	_, m2, err := EncodeArchive(Params{DataBlocks: 3, ParityBlocks: 2}, id, []byte("archive two"), "two")
	if err != nil {
		t.Fatal(err)
	}
	mb := &MasterBlock{
		Manifests: []*Manifest{m1, m2},
		Partners:  map[int][]string{0: {"peer-a", "peer-b"}},
	}
	raw, err := MarshalMasterBlock(mb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalMasterBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Manifests) != 2 || got.Version != 1 {
		t.Fatalf("master block round trip: %+v", got)
	}
	if got.Partners[0][1] != "peer-b" {
		t.Fatal("partners lost")
	}
	if _, err := UnmarshalMasterBlock([]byte(`{"version":9}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := UnmarshalMasterBlock([]byte("[")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

// A null in the manifest list is refused by its index, on the way in
// and on the way out, not dereferenced.
func TestMasterBlockRejectsNullManifest(t *testing.T) {
	_, err := UnmarshalMasterBlock([]byte(`{"version":1,"manifests":[null]}`))
	if !errors.Is(err, ErrManifest) || !strings.Contains(err.Error(), "manifest 0 is null") {
		t.Fatalf("unmarshal: err = %v, want ErrManifest naming manifest 0", err)
	}
	if _, err := MarshalMasterBlock(&MasterBlock{Manifests: []*Manifest{nil}}); !errors.Is(err, ErrManifest) {
		t.Fatalf("marshal: err = %v, want ErrManifest", err)
	}
}

func TestPaperShapeArchive(t *testing.T) {
	// Full-size shape (k=m=128) on a small archive: the pipeline holds
	// with 128 lost blocks, the paper's worst tolerated case.
	id := testIdentity(t)
	plaintext := bytes.Repeat([]byte("paper-scale "), 4096)
	blocks, m, err := EncodeArchive(DefaultParams(), id, plaintext, "")
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	for _, i := range r.Perm(256)[:128] {
		blocks[i] = nil
	}
	got, err := DecodeArchive(m, id, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plaintext) {
		t.Fatal("paper-shape restore failed")
	}
}
