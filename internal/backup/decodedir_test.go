package backup

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"p2pbackup/internal/storage"
)

// readersOf is a DecodeDir fetch over blocks held in memory, absent ones
// nil.
func readersOf(blocks [][]byte) func(int, storage.BlockID) io.ReaderAt {
	return func(i int, _ storage.BlockID) io.ReaderAt {
		if blocks[i] == nil {
			return nil
		}
		return bytes.NewReader(blocks[i])
	}
}

// entriesUnder lists everything under dir, directories too.
func entriesUnder(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(dir, func(p string, _ os.DirEntry, err error) error {
		if p != dir {
			names = append(names, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestDecodeDirRestoresWhatEncodeDirRead(t *testing.T) {
	id := testIdentity(t)
	files := map[string][]byte{
		"a/b":           testBytes(7, 70_000),
		"a.txt":         []byte("alpha"),
		"empty":         nil,
		"deep/er/still": testBytes(8, 300_000),
	}
	src := writeTree(t, files)
	then := time.Date(2020, 2, 2, 20, 20, 20, 0, time.UTC)
	if err := os.Chtimes(filepath.Join(src, "a.txt"), then, then); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(filepath.Join(src, "a", "b"), 0o600); err != nil {
		t.Fatal(err)
	}
	params := Params{DataBlocks: 6, ParityBlocks: 3}
	blocks := make([][]byte, params.Total())
	m, _, _, err := EncodeDir(params, known(id), src, "tree", func(i int, chunk []byte) error {
		blocks[i] = append(blocks[i], chunk...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stripes < 5 {
		t.Fatalf("%d stripes, want several", m.Stripes)
	}

	// Into a directory that does not exist yet, from the data blocks; then
	// over what is there, from whatever is left without three of them.
	dst := filepath.Join(t.TempDir(), "not", "there", "yet")
	for round, lost := range [][]int{nil, {0, 2, 4}} {
		for _, i := range lost {
			blocks[i] = nil
		}
		var asked []int
		n, read, err := DecodeDir(m, id, dst, func(i int, id storage.BlockID) io.ReaderAt {
			asked = append(asked, i)
			if id != m.BlockIDs[i] {
				t.Fatalf("block %d asked for under another block's id", i)
			}
			return readersOf(blocks)(i, id)
		})
		if err != nil || n != len(files) || read != 6 {
			t.Fatalf("round %d: DecodeDir = %d files from %d blocks, %v", round, n, read, err)
		}
		if want := 6 + len(lost); len(asked) != want || asked[0] != 0 {
			t.Fatalf("round %d: asked for blocks %v, want the first %d", round, asked, want)
		}
		for name, want := range files {
			got, err := os.ReadFile(filepath.Join(dst, filepath.FromSlash(name)))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("round %d: %s restored with other content (%v)", round, name, err)
			}
		}
		// Four files in three directories, and from the second round on
		// the user's own: no staging directory stays behind.
		if got := entriesUnder(t, dst); len(got) != 7+round {
			t.Fatalf("round %d: the restore left %v", round, got)
		}
		if info, _ := os.Stat(filepath.Join(dst, "a.txt")); !info.ModTime().Equal(then) {
			t.Fatalf("a.txt restored with modification time %v, want %v", info.ModTime(), then)
		}
		if info, _ := os.Stat(filepath.Join(dst, "a", "b")); info.Mode().Perm() != 0o600 {
			t.Fatalf("a/b restored with mode %v, want 0600", info.Mode().Perm())
		}
		// Something of the user's in the way of the second round.
		if err := os.WriteFile(filepath.Join(dst, "a", "b"), []byte("overwritten since"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, "a", "mine"), []byte("not the archive's"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := os.ReadFile(filepath.Join(dst, "a", "mine")); string(got) != "not the archive's" {
		t.Fatal("the restore removed a file that was not its own")
	}
}

// flipAfter is a block that changes under the read: byte at of it reads
// flipped once the block has been read from the start armed times.
type flipAfter struct {
	block []byte
	at    int64
	armed *int
}

func (f flipAfter) ReadAt(p []byte, off int64) (int, error) {
	if off == 0 {
		*f.armed--
	}
	n, err := bytes.NewReader(f.block).ReadAt(p, off)
	if *f.armed < 0 && off <= f.at && f.at < off+int64(n) {
		p[f.at-off] ^= 0x40
	}
	return n, err
}

// Whatever fails a restore, the destination is as it was found: too few
// blocks, a forged manifest, another owner's key, and a block that
// changes in its last stripe after every earlier stripe was written out.
func TestDecodeDirFailuresLeaveNothing(t *testing.T) {
	id := testIdentity(t)
	src := writeTree(t, map[string][]byte{"one.bin": testBytes(1, 90_000), "dir/two.bin": testBytes(2, 50_000)})
	params := Params{DataBlocks: 4, ParityBlocks: 4}
	blocks := make([][]byte, params.Total())
	m, _, _, err := EncodeDir(params, known(id), src, "", func(i int, chunk []byte) error {
		blocks[i] = append(blocks[i], chunk...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stripes != 5 {
		t.Fatalf("%d stripes, want 5", m.Stripes)
	}
	survivors := append(make([][]byte, 4), blocks[4:]...) // k blocks, no spare
	lastStripe := int64(len(blocks[0]) - 10)

	cases := map[string]func() (*Manifest, *Identity, func(int, storage.BlockID) io.ReaderAt){
		"k-1 blocks": func() (*Manifest, *Identity, func(int, storage.BlockID) io.ReaderAt) {
			return m, id, readersOf(append(make([][]byte, 5), blocks[5:]...))
		},
		"another owner": func() (*Manifest, *Identity, func(int, storage.BlockID) io.ReaderAt) {
			return m, testIdentity(t), readersOf(survivors)
		},
		"another archive's id": func() (*Manifest, *Identity, func(int, storage.BlockID) io.ReaderAt) {
			forged := *m
			forged.ID[0] ^= 1
			return &forged, id, readersOf(survivors)
		},
		"a byte flipped in the last stripe of a chosen block": func() (*Manifest, *Identity, func(int, storage.BlockID) io.ReaderAt) {
			armed := 0 // from the first read on
			return m, id, func(i int, id storage.BlockID) io.ReaderAt {
				if i == 6 {
					return flipAfter{blocks[i], lastStripe, &armed}
				}
				return readersOf(survivors)(i, id)
			}
		},
		"a block a stripe short": func() (*Manifest, *Identity, func(int, storage.BlockID) io.ReaderAt) {
			short := append([][]byte(nil), survivors...)
			short[5] = short[5][:3*stripeChunk]
			return m, id, readersOf(short)
		},
	}
	for name, setup := range cases {
		for _, existing := range []bool{true, false} {
			dst := filepath.Join(t.TempDir(), "dst")
			if existing {
				if err := os.MkdirAll(filepath.Join(dst, "dir"), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dst, "dir", "two.bin"), []byte("the user's own"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := entriesUnder(t, filepath.Dir(dst))
			m, owner, fetch := setup()
			files, _, err := DecodeDir(m, owner, dst, fetch)
			if err == nil || files != 0 {
				t.Fatalf("%s: DecodeDir = %d files, %v", name, files, err)
			}
			if name == "k-1 blocks" && !errors.Is(err, ErrTooFewBlocks) {
				t.Fatalf("%s: err = %v, want ErrTooFewBlocks", name, err)
			}
			after := entriesUnder(t, filepath.Dir(dst))
			if len(after) != len(before) {
				t.Fatalf("%s (destination exists: %v): the failed restore left %v, found %v", name, existing, after, before)
			}
			if existing {
				if got, _ := os.ReadFile(filepath.Join(dst, "dir", "two.bin")); string(got) != "the user's own" {
					t.Fatalf("%s: the failed restore overwrote dir/two.bin", name)
				}
			}
		}
	}
}

// A version 1 archive restores through DecodeDir too, whole blocks read
// through the same readers.
func TestDecodeDirVersion1(t *testing.T) {
	id := testIdentity(t)
	entries := sampleEntries()
	plaintext, err := PackFiles(entries)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{DataBlocks: 4, ParityBlocks: 4}
	key := testBytes(13, SessionKeySize)
	blocks, m := encodeRef(t, params, key, testBytes(14, ivSize), plaintext)
	if m.WrappedKey, err = WrapKey(id.Public(), key); err != nil {
		t.Fatal(err)
	}
	blocks[1], blocks[3] = nil, nil
	dst := t.TempDir()
	files, read, err := DecodeDir(m, id, dst, readersOf(blocks))
	if err != nil || files != len(entries) || read != 4 {
		t.Fatalf("DecodeDir = %d files from %d blocks, %v", files, read, err)
	}
	for _, e := range entries {
		got, err := os.ReadFile(filepath.Join(dst, filepath.FromSlash(e.Path)))
		if err != nil || !bytes.Equal(got, e.Data) {
			t.Fatalf("%s restored with other content (%v)", e.Path, err)
		}
	}
	// A block longer than the manifest makes it is not read to its end.
	blocks[0] = append(bytes.Clone(blocks[0]), make([]byte, 1<<20)...)
	if _, _, err := DecodeDir(m, id, t.TempDir(), readersOf(blocks)); !errors.Is(err, ErrManifest) {
		t.Fatalf("an overlong block: err = %v, want ErrManifest", err)
	}
}
