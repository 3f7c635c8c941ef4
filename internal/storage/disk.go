package storage

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// DiskStore is an on-disk content-addressed Store. Blocks live under
// root/xx/<hex id> where xx is the first id byte, written atomically
// (a temp file in root, fsync, rename) so crashes never leave half
// blocks under their final name. The index is rebuilt by scanning on
// open. It is safe for concurrent use.
type DiskStore struct {
	root  string
	mu    sync.RWMutex
	sizes map[BlockID]int64
	used  int64
	quota int64
}

// OpenDiskStore opens (creating if needed) a store rooted at dir with a
// byte quota (0 = unlimited), scanning existing blocks into the index.
func OpenDiskStore(dir string, quotaBytes int64) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create root: %w", err)
	}
	s := &DiskStore{root: dir, sizes: make(map[BlockID]int64), quota: quotaBytes}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() || len(e.Name()) != 2 {
			continue
		}
		sub, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range sub {
			if f.IsDir() || strings.HasSuffix(f.Name(), ".tmp") {
				continue
			}
			id, err := parseBlockID(f.Name())
			if err != nil {
				continue // foreign file; ignore
			}
			info, err := f.Info()
			if err != nil {
				return nil, err
			}
			s.sizes[id] = info.Size()
			s.used += info.Size()
		}
	}
	return s, nil
}

// Root returns the store's directory.
func (s *DiskStore) Root() string { return s.root }

func (s *DiskStore) path(id BlockID) string {
	hexID := id.String()
	return filepath.Join(s.root, hexID[:2], hexID)
}

// Put implements Store.
func (s *DiskStore) Put(data []byte) (BlockID, error) {
	id := IDOf(data)
	if s.Has(id) {
		return id, nil
	}
	w, err := s.newWriter(nil) // the id is known: nothing to hash
	if err != nil {
		return BlockID{}, err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return BlockID{}, err
	}
	if err := w.install(id); err != nil {
		return BlockID{}, err
	}
	return id, nil
}

// diskWriter is a block on its way into a DiskStore: a temp file in the
// store's root until install renames it to the block's name.
type diskWriter struct {
	s    *DiskStore
	f    *os.File  // nil once spent
	hash hash.Hash // of what was written; nil when the caller knows the id
	n    int64
}

// NewWriter implements Store.
func (s *DiskStore) NewWriter() (BlockWriter, error) { return s.newWriter(sha256.New()) }

func (s *DiskStore) newWriter(h hash.Hash) (*diskWriter, error) {
	f, err := os.CreateTemp(s.root, "incoming.*.tmp")
	if err != nil {
		return nil, err
	}
	return &diskWriter{s: s, f: f, hash: h}, nil
}

func (w *diskWriter) Write(p []byte) (int, error) {
	if w.f == nil {
		return 0, errWriterSpent
	}
	if err := w.s.admits(w.n + int64(len(p))); err != nil {
		return 0, err
	}
	n, err := w.f.Write(p)
	if w.hash != nil {
		w.hash.Write(p[:n])
	}
	w.n += int64(n)
	return n, err
}

func (w *diskWriter) Commit() (id BlockID, err error) {
	if w.f == nil {
		return id, errWriterSpent
	}
	w.hash.Sum(id[:0])
	return id, w.install(id)
}

func (w *diskWriter) Abort() {
	if w.f != nil {
		w.f.Close()
		os.Remove(w.f.Name())
		w.f = nil
	}
}

// install makes what was written the block id, unless the store has it
// already. The temp file is gone afterwards either way.
func (w *diskWriter) install(id BlockID) error {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sizes[id]; ok {
		w.Abort()
		return nil
	}
	if err := s.admitsLocked(w.n); err != nil {
		w.Abort()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.Abort()
		return err
	}
	tmp := w.f.Name()
	err := w.f.Close()
	w.f = nil
	final := s.path(id)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(final), 0o755)
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	s.sizes[id] = w.n
	s.used += w.n
	return nil
}

// admits reports ErrQuota if n more bytes would exceed the quota.
func (s *DiskStore) admits(n int64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.admitsLocked(n)
}

func (s *DiskStore) admitsLocked(n int64) error {
	if s.quota > 0 && s.used+n > s.quota {
		return fmt.Errorf("%w: %d + %d > %d", ErrQuota, s.used, n, s.quota)
	}
	return nil
}

// Get implements Store; content is re-hashed on every read.
func (s *DiskStore) Get(id BlockID) ([]byte, error) {
	s.mu.RLock()
	_, ok := s.sizes[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	data, err := os.ReadFile(s.path(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, err
	}
	if IDOf(data) != id {
		return nil, fmt.Errorf("%w: %s", ErrCorrupted, id)
	}
	return data, nil
}

// Open implements Store: the block's file, which every read of it then
// preads.
func (s *DiskStore) Open(id BlockID) (BlockReader, error) {
	if !s.Has(id) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	f, err := os.Open(s.path(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, err
	}
	return f, nil
}

// Has implements Store.
func (s *DiskStore) Has(id BlockID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.sizes[id]
	return ok
}

// Delete implements Store.
func (s *DiskStore) Delete(id BlockID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, ok := s.sizes[id]
	if !ok {
		return nil
	}
	if err := os.Remove(s.path(id)); err != nil && !os.IsNotExist(err) {
		return err
	}
	delete(s.sizes, id)
	s.used -= size
	return nil
}

// Len implements Store.
func (s *DiskStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sizes)
}

var _ Store = (*DiskStore)(nil)
