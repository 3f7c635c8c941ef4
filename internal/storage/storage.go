// Package storage provides the block store a backup peer runs on: an
// on-disk content-addressed store, one per peer directory of a
// cmd/p2pbackup repository. Blocks are
// identified by their SHA-256 hash, so every read is integrity-checked
// by construction; corrupted blocks are detected and reported rather
// than returned.
package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// BlockID is the SHA-256 hash of a block's content.
type BlockID [sha256.Size]byte

// IDOf hashes a block.
func IDOf(data []byte) BlockID { return sha256.Sum256(data) }

// String renders the id in hex.
func (id BlockID) String() string { return hex.EncodeToString(id[:]) }

// parseBlockID parses a hex block id.
func parseBlockID(s string) (BlockID, error) {
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
	// Open opens the block for reads by range, for a reader that reads
	// it many times and closes it once.
	Open(id BlockID) (BlockReader, error)
	// Has reports whether the block is present (without reading it).
	Has(id BlockID) bool
	// Delete removes a block; deleting an absent block is not an error.
	Delete(id BlockID) error
	// Len returns the number of stored blocks.
	Len() int
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

// BlockReader reads one stored block by range, the way an io.ReaderAt
// does: a read that reaches the block's end returns what there was and
// io.EOF. It verifies nothing, so whoever reads a block by range vouches
// for the bytes some other way (a hash over all of them, a MAC over what
// they decode to). Close releases the block.
type BlockReader interface {
	io.ReaderAt
	io.Closer
}

var errWriterSpent = errors.New("storage: block writer used after Commit or Abort")
