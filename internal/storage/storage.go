// Package storage provides the block stores a backup peer runs on: an
// in-memory store for tests, and an on-disk content-addressed store,
// one per peer directory of a cmd/p2pbackup repository. Blocks are
// identified by their SHA-256 hash, so every read is integrity-checked
// by construction; corrupted blocks are detected and reported rather
// than returned.
package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
)

// BlockID is the SHA-256 hash of a block's content.
type BlockID [sha256.Size]byte

// IDOf hashes a block.
func IDOf(data []byte) BlockID { return sha256.Sum256(data) }

// String renders the id in hex.
func (id BlockID) String() string { return hex.EncodeToString(id[:]) }

// ParseBlockID parses a hex block id.
func ParseBlockID(s string) (BlockID, error) {
	var id BlockID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("storage: bad block id: %w", err)
	}
	if len(b) != len(id) {
		return id, fmt.Errorf("storage: bad block id length %d", len(b))
	}
	copy(id[:], b)
	return id, nil
}

// Store errors.
var (
	ErrNotFound  = errors.New("storage: block not found")
	ErrCorrupted = errors.New("storage: block corrupted")
	ErrQuota     = errors.New("storage: quota exceeded")
)

// Store is a content-addressed block store.
type Store interface {
	// Put stores data and returns its id. Storing the same content
	// twice is idempotent.
	Put(data []byte) (BlockID, error)
	// NewWriter starts a block that arrives piece by piece.
	NewWriter() (BlockWriter, error)
	// Get returns the block's content, verifying integrity.
	Get(id BlockID) ([]byte, error)
	// ReadAt reads len(p) bytes of the block starting at byte off, the
	// way an io.ReaderAt does: a read that reaches the block's end
	// returns what there was and io.EOF. It verifies nothing, so
	// whoever reads a block by range vouches for the bytes some other
	// way (a hash over all of them, a MAC over what they decode to).
	ReadAt(id BlockID, p []byte, off int64) (int, error)
	// Has reports whether the block is present (without reading it).
	Has(id BlockID) bool
	// Delete removes a block; deleting an absent block is not an error.
	Delete(id BlockID) error
	// Len returns the number of stored blocks.
	Len() int
	// UsedBytes returns the total content size stored.
	UsedBytes() int64
	// IDs lists stored block ids (sorted, for determinism).
	IDs() []BlockID
}

// BlockWriter stores a block whose content comes into being piece by
// piece, for a producer that never holds the whole of it. The content is
// hashed as it is written; nothing is visible in the store before Commit
// and nothing is left behind after Abort. A BlockWriter is not safe for
// concurrent use.
type BlockWriter interface {
	io.Writer
	// Commit stores what was written as one block and returns its id,
	// the hash of it. Like Put it is idempotent for content the store
	// already has. The writer is spent afterwards, also after an error.
	Commit() (BlockID, error)
	// Abort discards what was written. After Commit it does nothing.
	Abort()
}

var errWriterSpent = errors.New("storage: block writer used after Commit or Abort")

// ---------------------------------------------------------------------------
// MemStore

// MemStore is an in-memory Store with an optional byte quota. It is
// safe for concurrent use.
type MemStore struct {
	mu    sync.RWMutex
	data  map[BlockID][]byte
	used  int64
	quota int64 // 0 = unlimited
}

// NewMemStore returns an empty in-memory store with a byte quota
// (0 = unlimited).
func NewMemStore(quotaBytes int64) *MemStore {
	return &MemStore{data: make(map[BlockID][]byte), quota: quotaBytes}
}

// Put implements Store.
func (m *MemStore) Put(data []byte) (BlockID, error) {
	id := IDOf(data)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.data[id]; ok {
		return id, nil
	}
	if m.quota > 0 && m.used+int64(len(data)) > m.quota {
		return BlockID{}, fmt.Errorf("%w: %d + %d > %d", ErrQuota, m.used, len(data), m.quota)
	}
	m.data[id] = append([]byte(nil), data...)
	m.used += int64(len(data))
	return id, nil
}

// Get implements Store.
func (m *MemStore) Get(id BlockID) ([]byte, error) {
	m.mu.RLock()
	data, ok := m.data[id]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	out := append([]byte(nil), data...)
	if IDOf(out) != id {
		return nil, fmt.Errorf("%w: %s", ErrCorrupted, id)
	}
	return out, nil
}

// ReadAt implements Store.
func (m *MemStore) ReadAt(id BlockID, p []byte, off int64) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.data[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return bytes.NewReader(data).ReadAt(p, off)
}

// memWriter collects the block in memory; Commit is Put.
type memWriter struct {
	m    *MemStore // nil once spent
	data []byte
}

// NewWriter implements Store.
func (m *MemStore) NewWriter() (BlockWriter, error) { return &memWriter{m: m}, nil }

func (w *memWriter) Write(p []byte) (int, error) {
	if w.m == nil {
		return 0, errWriterSpent
	}
	w.data = append(w.data, p...)
	return len(p), nil
}

func (w *memWriter) Commit() (BlockID, error) {
	if w.m == nil {
		return BlockID{}, errWriterSpent
	}
	m := w.m
	w.m = nil
	return m.Put(w.data)
}

func (w *memWriter) Abort() { w.m, w.data = nil, nil }

// Has implements Store.
func (m *MemStore) Has(id BlockID) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.data[id]
	return ok
}

// Delete implements Store.
func (m *MemStore) Delete(id BlockID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if data, ok := m.data[id]; ok {
		m.used -= int64(len(data))
		delete(m.data, id)
	}
	return nil
}

// Len implements Store.
func (m *MemStore) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.data)
}

// UsedBytes implements Store.
func (m *MemStore) UsedBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.used
}

// IDs implements Store.
func (m *MemStore) IDs() []BlockID {
	m.mu.RLock()
	ids := make([]BlockID, 0, len(m.data))
	for id := range m.data {
		ids = append(ids, id)
	}
	m.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool {
		for b := range ids[i] {
			if ids[i][b] != ids[j][b] {
				return ids[i][b] < ids[j][b]
			}
		}
		return false
	})
	return ids
}
