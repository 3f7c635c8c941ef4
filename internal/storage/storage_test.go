package storage

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func testStores(t *testing.T, f func(t *testing.T, s *DiskStore)) {
	t.Helper()
	t.Run("disk", func(t *testing.T) {
		s, err := OpenDiskStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		f(t, s)
	})
}

func TestPutGetRoundTrip(t *testing.T) {
	testStores(t, func(t *testing.T, s *DiskStore) {
		data := []byte("hello, backup world")
		id, err := s.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		if id != IDOf(data) {
			t.Fatal("id is not the content hash")
		}
		got, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("content mismatch")
		}
		if !s.Has(id) || s.Len() != 1 || s.used != int64(len(data)) {
			t.Fatal("bookkeeping wrong")
		}
		// Idempotent put.
		if _, err := s.Put(data); err != nil {
			t.Fatal(err)
		}
		if s.Len() != 1 {
			t.Fatal("duplicate put created a second block")
		}
	})
}

func TestGetMissing(t *testing.T) {
	testStores(t, func(t *testing.T, s *DiskStore) {
		if _, err := s.Get(IDOf([]byte("nope"))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
		if s.Has(IDOf([]byte("nope"))) {
			t.Fatal("Has on missing block")
		}
	})
}

func TestDelete(t *testing.T) {
	testStores(t, func(t *testing.T, s *DiskStore) {
		id, _ := s.Put([]byte("data"))
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
		if s.Has(id) || s.Len() != 0 || s.used != 0 {
			t.Fatal("delete left state")
		}
		if err := s.Delete(id); err != nil {
			t.Fatal("deleting absent block must be a no-op")
		}
	})
}

func TestQuota(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put([]byte("12345")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put([]byte("678901")); !errors.Is(err, ErrQuota) {
		t.Fatalf("quota breach: err = %v", err)
	}
	// Freeing space lets the put through.
	if err := s.Delete(IDOf([]byte("12345"))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put([]byte("678901")); err != nil {
		t.Fatalf("put after free: %v", err)
	}
}

func TestDiskCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("precious data on disk")
	id, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte behind the store's back.
	path := filepath.Join(dir, id.String()[:2], id.String())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(id); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("err = %v, want ErrCorrupted", err)
	}
}

func TestDiskReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := s.Put([]byte("block one"))
	id2, _ := s.Put([]byte("block two"))
	want := s.used

	s2, err := OpenDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 || s2.used != want {
		t.Fatalf("reopened: len=%d used=%d", s2.Len(), s2.used)
	}
	for _, id := range []BlockID{id1, id2} {
		if !s2.Has(id) {
			t.Fatalf("reopened store missing %s", id)
		}
		if _, err := s2.Get(id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiskIgnoresForeignAndTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ab", "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ab", "deadbeef.123.tmp"), []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("foreign files indexed: %d", s.Len())
	}
}

func TestBlockIDParse(t *testing.T) {
	id := IDOf([]byte("x"))
	parsed, err := parseBlockID(id.String())
	if err != nil || parsed != id {
		t.Fatalf("round trip failed: %v", err)
	}
	if _, err := parseBlockID("zz"); err == nil {
		t.Fatal("bad hex accepted")
	}
	if _, err := parseBlockID("abcd"); err == nil {
		t.Fatal("short id accepted")
	}
}

func TestDiskStoreConcurrency(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				data := []byte{byte(g), byte(i), byte(i >> 4)}
				id, err := s.Put(data)
				if err != nil {
					done <- err
					return
				}
				if _, err := s.Get(id); err != nil {
					done <- err
					return
				}
				if i%3 == 0 {
					if err := s.Delete(id); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// filesUnder lists the regular files below a store's root.
func filesUnder(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestWriterCommitsWhatPutWould(t *testing.T) {
	testStores(t, func(t *testing.T, s *DiskStore) {
		data := bytes.Repeat([]byte("stripe by stripe "), 1000)
		w, err := s.NewWriter()
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += 777 {
			if _, err := w.Write(data[off:min(off+777, len(data))]); err != nil {
				t.Fatal(err)
			}
			if s.Len() != 0 {
				t.Fatal("a block is visible before Commit")
			}
		}
		id, err := w.Commit()
		if err != nil || id != IDOf(data) {
			t.Fatalf("Commit = %s, %v; want the content hash", id, err)
		}
		if got, err := s.Get(id); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get after Commit: %v", err)
		}
		if s.Len() != 1 || s.used != int64(len(data)) {
			t.Fatalf("after Commit: %d blocks, %d bytes", s.Len(), s.used)
		}
		w.Abort() // after Commit: nothing
		if !s.Has(id) {
			t.Fatal("Abort after Commit removed the block")
		}
		if _, err := w.Write([]byte("x")); err == nil {
			t.Fatal("Write after Commit accepted")
		}
		if _, err := w.Commit(); err == nil {
			t.Fatal("second Commit accepted")
		}

		// The same content again, streamed or put, is the same block.
		w, _ = s.NewWriter()
		w.Write(data)
		if again, err := w.Commit(); err != nil || again != id || s.Len() != 1 {
			t.Fatalf("recommit: %s, %v, %d blocks", again, err, s.Len())
		}
		if _, err := s.Put(data); err != nil || s.Len() != 1 {
			t.Fatalf("Put of committed content: %v, %d blocks", err, s.Len())
		}
	})
}

func TestWriterAbortAndQuotaLeaveNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := s.NewWriter()
	w.Write(make([]byte, 60))
	if len(filesUnder(t, dir)) != 1 {
		t.Fatal("the block in flight is not one temp file")
	}
	w.Abort()
	w.Abort()
	if left := filesUnder(t, dir); len(left) != 0 || s.Len() != 0 || s.used != 0 {
		t.Fatalf("Abort left %v, %d blocks", left, s.Len())
	}

	// Two writers that each fit and together do not: the second to
	// commit is refused, and so is a write past the quota.
	a, _ := s.NewWriter()
	b, _ := s.NewWriter()
	a.Write(bytes.Repeat([]byte{1}, 60))
	b.Write(bytes.Repeat([]byte{2}, 60))
	if _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(); !errors.Is(err, ErrQuota) {
		t.Fatalf("commit past the quota: err = %v, want ErrQuota", err)
	}
	c, _ := s.NewWriter()
	if _, err := c.Write(make([]byte, 41)); !errors.Is(err, ErrQuota) {
		t.Fatalf("write past the quota: err = %v, want ErrQuota", err)
	}
	c.Abort()
	if left := filesUnder(t, dir); len(left) != 1 || s.Len() != 1 || s.used != 60 {
		t.Fatalf("after the refusals: files %v, %d blocks, %d bytes", left, s.Len(), s.used)
	}
	// A reopened store does not take a writer's leftovers for blocks.
	w, _ = s.NewWriter()
	w.Write([]byte("crashed here"))
	if again, err := OpenDiskStore(dir, 0); err != nil || again.Len() != 1 {
		t.Fatalf("reopened with a block in flight: %d blocks, %v", again.Len(), err)
	}
	w.Abort()
}

func TestReadAt(t *testing.T) {
	testStores(t, func(t *testing.T, s *DiskStore) {
		data := []byte("0123456789abcdef")
		id, err := s.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			off, n int
			want   string
			eof    bool
		}{{0, 4, "0123", false}, {6, 10, "6789abcdef", false}, {12, 8, "cdef", true}, {16, 1, "", true}, {99, 1, "", true}, {3, 0, "", false}} {
			p := make([]byte, c.n)
			n, err := b.ReadAt(p, int64(c.off))
			if string(p[:n]) != c.want || (err == io.EOF) != c.eof || (err != nil && err != io.EOF) {
				t.Fatalf("ReadAt(%d bytes at %d) = %q, %v; want %q, eof %v", c.n, c.off, p[:n], err, c.want, c.eof)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Open(IDOf([]byte("nope"))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Open of a missing block: err = %v, want ErrNotFound", err)
		}
	})
}
