package backup

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"p2pbackup/internal/erasure"
	"p2pbackup/internal/storage"
)

// Params fixes the archive coding shape.
type Params struct {
	// DataBlocks is k, ParityBlocks is m. The paper uses 128/128.
	DataBlocks   int
	ParityBlocks int
}

// DefaultParams returns the paper's 128+128 shape.
func DefaultParams() Params { return Params{DataBlocks: 128, ParityBlocks: 128} }

// Validate checks the shape.
func (p Params) Validate() error {
	if p.DataBlocks < 1 || p.ParityBlocks < 1 || p.DataBlocks+p.ParityBlocks > 256 {
		return fmt.Errorf("backup: invalid params k=%d m=%d", p.DataBlocks, p.ParityBlocks)
	}
	return nil
}

// Total returns n.
func (p Params) Total() int { return p.DataBlocks + p.ParityBlocks }

// ArchiveID identifies an archive by the SHA-256 of its sealed bytes.
type ArchiveID [sha256.Size]byte

// String renders the id.
func (a ArchiveID) String() string { return fmt.Sprintf("%x", a[:8]) }

// Manifest describes one encoded archive: what to fetch and how to
// verify and decode it. Manifests are metadata (the paper stores them
// with extra redundancy); they contain no secrets beyond file shape.
//
// Version 2, the only one written, lays the archive out in stripes (see
// stripe.go) and records how many. A manifest without a version is
// version 1, which stays readable: block i is the i-th k-th of the
// sealed archive, whole, and Stripes is zero.
type Manifest struct {
	Version     int               `json:"version,omitempty"`
	ID          ArchiveID         `json:"id"`
	SealedSize  int               `json:"sealed_size"`
	Stripes     int               `json:"stripes,omitempty"`
	Params      Params            `json:"params"`
	BlockIDs    []storage.BlockID `json:"block_ids"` // index -> content hash
	WrappedKey  []byte            `json:"wrapped_key"`
	Description string            `json:"description,omitempty"`
}

// EncodeArchive runs the paper's backup pipeline on plaintext archive
// bytes: seal under a fresh session key, cut into stripes of k chunks,
// add m parity chunks to each, hash every block. It returns the n blocks
// (index -> content) and the manifest.
func EncodeArchive(params Params, owner *Identity, plaintext []byte, description string) ([][]byte, *Manifest, error) {
	if err := params.Validate(); err != nil {
		return nil, nil, err
	}
	lay, _ := planLayout(params.DataBlocks, int64(len(plaintext)))
	blocks := make([][]byte, params.Total())
	for i := range blocks {
		blocks[i] = make([]byte, 0, lay.blockSize())
	}
	m, err := encodeFresh(params, known(owner), int64(len(plaintext)),
		func(w io.Writer) error { _, err := w.Write(plaintext); return err },
		description,
		func(i int, chunk []byte) error { blocks[i] = append(blocks[i], chunk...); return nil })
	if err != nil {
		return nil, nil, err
	}
	return blocks, m, nil
}

// EncodeDir runs the same pipeline over the regular files under root
// without ever holding them: the tree is listed, the tar stream sized
// by a dry run, and then each file is read once, straight through tar,
// cipher and hashes into the stripe it falls in. Whenever a stripe is
// full, put receives its n chunks: for each block i the bytes to append
// to it, only valid during the call. Blocks [0, n/2) and [n/2, n) are
// put from two goroutines at once, each half in block order, and a
// stripe's calls all return before the next stripe's begin, so that put
// must be safe to call for two distinct blocks at once. What EncodeDir
// holds is one stripe, data and parity. It returns the manifest, the
// number of files and the size of the plaintext archive.
//
// owner is asked for the identity whose public key wraps the session
// key once, after the last stripe was put and before EncodeDir returns,
// so that it may still be in the making while the tree streams; an
// error from it fails the backup.
//
// A file that has vanished, shrunk or grown since the listing fails the
// backup with ErrSourceChanged, as does any error put or owner returns;
// what was handed to put before that belongs to no archive.
func EncodeDir(params Params, owner func() (*Identity, error), root, description string, put func(i int, chunk []byte) error) (m *Manifest, files int, size int64, err error) {
	list, err := listDir(root)
	if err != nil {
		return nil, 0, 0, err
	}
	if size, err = tarSize(list); err != nil {
		return nil, 0, 0, err
	}
	m, err = encodeFresh(params, owner, size,
		func(w io.Writer) error { return writeTar(w, list, fromDisk()) },
		description, put)
	return m, len(list), size, err
}

// encodeFresh is encodeStream under a session key and iv drawn here.
func encodeFresh(params Params, owner func() (*Identity, error), size int64, body func(io.Writer) error, description string, put func(i int, chunk []byte) error) (*Manifest, error) {
	key, err := NewSessionKey()
	if err != nil {
		return nil, err
	}
	iv, err := newIV()
	if err != nil {
		return nil, err
	}
	return encodeStream(params, owner, key, iv, size, body, description, put)
}

// encodeStream is the one encoder: body must write exactly size bytes of
// plaintext archive, which are sealed under key and iv and leave through
// put a stripe at a time (see stripeWriter); the manifest describes what
// passed, its session key wrapped for the identity owner returns.
func encodeStream(params Params, owner func() (*Identity, error), key, iv []byte, size int64, body func(io.Writer) error, description string, put func(i int, chunk []byte) error) (*Manifest, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, ErrEmptyArchive
	}
	lay, sealed := planLayout(params.DataBlocks, size)
	if sealed > math.MaxInt || sealed < size {
		return nil, fmt.Errorf("backup: archive of %d bytes is too large", size)
	}
	m := &Manifest{
		Version:     2,
		SealedSize:  int(sealed),
		Params:      params,
		BlockIDs:    make([]storage.BlockID, params.Total()),
		Description: description,
	}
	w, err := newStripeWriter(params, key, iv, lay, put)
	if err != nil {
		return nil, err
	}
	if err := body(w); err != nil {
		return nil, err
	}
	if err := w.finish(m); err != nil {
		return nil, err
	}
	id, err := owner()
	if err != nil {
		return nil, err
	}
	if m.WrappedKey, err = WrapKey(id.Public(), key); err != nil {
		return nil, err
	}
	return m, nil
}

// known is the owner of an identity already in hand.
func known(id *Identity) func() (*Identity, error) {
	return func() (*Identity, error) { return id, nil }
}

// Restore errors.
var (
	ErrTooFewBlocks = errors.New("backup: not enough blocks to restore")
	ErrBlockHash    = errors.New("backup: block content does not match manifest")
	ErrManifest     = errors.New("backup: invalid manifest")
)

// blockSize is the length of every block of the archive: for version 1
// the sealed size over k, rounded up.
func (m *Manifest) blockSize() (int, error) {
	if m.Version < 2 {
		return (m.SealedSize-1)/m.Params.DataBlocks + 1, nil
	}
	lay, err := m.layout()
	return lay.blockSize(), err
}

// pick asks have for the archive's blocks in index order, which is data
// blocks first, until limit of them were had, and returns how many were.
func (m *Manifest) pick(limit int, have func(i int, id storage.BlockID) bool) (found int) {
	for i, id := range m.BlockIDs {
		if found == limit {
			break
		}
		if have(i, id) {
			found++
		}
	}
	return found
}

// DecodeArchive reverses EncodeArchive: blocks[i] must be the archive's
// i-th block or nil if unavailable; any k present blocks suffice. The
// owner's identity unwraps the session key. The plaintext is returned
// only after every block id, every tag and the archive hash have checked
// out, and it costs one buffer of the archive's size (and one stripe)
// beyond the blocks passed in.
func DecodeArchive(m *Manifest, owner *Identity, blocks [][]byte) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	k := m.Params.DataBlocks
	size, err := m.blockSize()
	if err != nil {
		return nil, err
	}
	if len(blocks) != m.Params.Total() {
		return nil, fmt.Errorf("%w: got %d block slots, want %d", ErrManifest, len(blocks), m.Params.Total())
	}
	// The sealed size comes from outside; nothing is allocated from it
	// until k blocks of exactly the length it implies are in hand.
	present := 0
	for i, b := range blocks {
		if len(b) == 0 {
			continue
		}
		if len(b) != size {
			return nil, fmt.Errorf("%w: block %d has %d bytes, a sealed size of %d makes it %d", ErrManifest, i, len(b), m.SealedSize, size)
		}
		if storage.IDOf(b) != m.BlockIDs[i] {
			return nil, fmt.Errorf("%w: block %d", ErrBlockHash, i)
		}
		present++
	}
	if present < k {
		return nil, fmt.Errorf("%w: %d of %d, need %d", ErrTooFewBlocks, present, m.Params.Total(), k)
	}
	if m.Version < 2 {
		return decodeV1(m, owner, blocks, size)
	}
	readers := make([]io.ReaderAt, len(blocks))
	m.pick(k, func(i int, _ storage.BlockID) bool {
		if len(blocks[i]) == 0 {
			return false
		}
		readers[i] = bytes.NewReader(blocks[i])
		return true
	})
	r, err := newStripeReader(m, owner, readers)
	if err != nil {
		return nil, err
	}
	// Room for the read that finds the end, so that the buffer is made once.
	plaintext := bytes.NewBuffer(make([]byte, 0, k*size+bytes.MinRead))
	if _, err := plaintext.ReadFrom(r); err != nil {
		return nil, err
	}
	return plaintext.Bytes(), nil
}

// decodeV1 decodes a version 1 archive from blocks of size bytes that
// DecodeArchive has checked: the data shards are copied or reconstructed
// into one buffer where they belong, and it is hashed, authenticated and
// decrypted where it lies.
func decodeV1(m *Manifest, owner *Identity, blocks [][]byte, size int) ([]byte, error) {
	k := m.Params.DataBlocks
	enc, err := erasure.New(k, m.Params.ParityBlocks)
	if err != nil {
		return nil, err
	}
	// Data shard i lives at buf[i*size:]: a present one is copied there,
	// a missing one is an empty slot with that capacity, which
	// ReconstructData fills in place.
	buf := make([]byte, k*size)
	shards := make([][]byte, len(blocks))
	copy(shards[k:], blocks[k:])
	for i := range shards[:k] {
		slot := buf[i*size : (i+1)*size]
		shards[i] = slot[:copy(slot, blocks[i])]
	}
	if err := enc.ReconstructData(shards); err != nil {
		return nil, err
	}
	sealed := buf[:m.SealedSize]
	if sha256.Sum256(sealed) != m.ID {
		return nil, fmt.Errorf("%w: archive hash mismatch", ErrManifest)
	}
	key, err := UnwrapKey(owner, m.WrappedKey)
	if err != nil {
		return nil, err
	}
	return open(key, sealed, true)
}

// Validate sanity-checks a manifest.
func (m *Manifest) Validate() error {
	if err := m.Params.Validate(); err != nil {
		return err
	}
	if m.SealedSize <= 0 {
		return fmt.Errorf("%w: sealed size %d", ErrManifest, m.SealedSize)
	}
	if len(m.BlockIDs) != m.Params.Total() {
		return fmt.Errorf("%w: %d block ids for n=%d", ErrManifest, len(m.BlockIDs), m.Params.Total())
	}
	if len(m.WrappedKey) == 0 {
		return fmt.Errorf("%w: missing wrapped key", ErrManifest)
	}
	switch m.Version {
	case 0: // version 1, written before manifests carried one
		return nil
	case 2:
		_, err := m.layout()
		return err
	default:
		return fmt.Errorf("%w: unsupported manifest version %d", ErrManifest, m.Version)
	}
}

// UnmarshalManifest parses a manifest and validates it.
func UnmarshalManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// MasterBlock is the restore entry point (paper section 2.2.1): the
// list of archives with their manifests and partner hints. It is the
// only thing besides the private key a user must retrieve to begin a
// restore.
type MasterBlock struct {
	Version int `json:"version"`
	// Seq increases on every publication; readers holding several
	// replicas keep the highest.
	Seq       int64       `json:"seq"`
	Manifests []*Manifest `json:"manifests"`
	// Partners maps archive index -> the peer names/addresses believed
	// to hold its blocks (a hint; restore falls back to flooding).
	Partners map[int][]string `json:"partners,omitempty"`
}

// MarshalMasterBlock serialises a master block.
func MarshalMasterBlock(mb *MasterBlock) ([]byte, error) {
	if mb.Version == 0 {
		mb.Version = 1
	}
	if err := mb.validateManifests(); err != nil {
		return nil, err
	}
	return json.Marshal(mb)
}

// validateManifests checks every manifest the block lists; a null one,
// which JSON can say, is invalid too.
func (mb *MasterBlock) validateManifests() error {
	for i, m := range mb.Manifests {
		if m == nil {
			return fmt.Errorf("%w: master block manifest %d is null", ErrManifest, i)
		}
		if err := m.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// UnmarshalMasterBlock parses and validates a master block.
func UnmarshalMasterBlock(data []byte) (*MasterBlock, error) {
	var mb MasterBlock
	if err := json.Unmarshal(data, &mb); err != nil {
		return nil, fmt.Errorf("%w: master block: %v", ErrManifest, err)
	}
	if mb.Version != 1 {
		return nil, fmt.Errorf("%w: unsupported master block version %d", ErrManifest, mb.Version)
	}
	if err := mb.validateManifests(); err != nil {
		return nil, err
	}
	return &mb, nil
}
