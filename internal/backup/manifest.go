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
type Manifest struct {
	ID          ArchiveID         `json:"id"`
	SealedSize  int               `json:"sealed_size"`
	Params      Params            `json:"params"`
	BlockIDs    []storage.BlockID `json:"block_ids"` // index -> content hash
	WrappedKey  []byte            `json:"wrapped_key"`
	Description string            `json:"description,omitempty"`
}

// EncodeArchive runs the paper's backup pipeline on plaintext archive
// bytes: seal under a fresh session key, split into k shards, add m
// parity shards, hash every block. It returns the n blocks (index ->
// content) and the manifest.
func EncodeArchive(params Params, owner *Identity, plaintext []byte, description string) ([][]byte, *Manifest, error) {
	var blocks [][]byte // put is called with block 0, 1, ... n-1
	m, err := encodeFresh(params, owner, int64(len(plaintext)),
		func(w io.Writer) error { _, err := w.Write(plaintext); return err },
		description,
		func(_ int, block []byte) error { blocks = append(blocks, bytes.Clone(block)); return nil })
	if err != nil {
		return nil, nil, err
	}
	return blocks, m, nil
}

// EncodeDir runs the same pipeline over the regular files under root
// without ever holding them: the tree is listed, the tar stream sized
// by a dry run, and then each file is read once, straight through tar,
// cipher, MAC and hashes into the data shard it falls in. put receives
// the archive's blocks in index order, data blocks 0..k-1 as they fill
// and the parity blocks after the last file; the block is only valid
// during the call. What EncodeDir holds is the parity and one batch of data shards
// (see erasure.Stream). It returns the manifest, the number of files
// and the size of the plaintext archive.
//
// A file that has vanished, shrunk or grown since the listing fails the
// backup with ErrSourceChanged, as does any error put returns; blocks
// handed to put before that belong to no archive.
func EncodeDir(params Params, owner *Identity, root, description string, put func(i int, block []byte) error) (m *Manifest, files int, size int64, err error) {
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
func encodeFresh(params Params, owner *Identity, size int64, body func(io.Writer) error, description string, put func(i int, block []byte) error) (*Manifest, error) {
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
// plaintext archive, which are sealed under key and iv, hashed, cut into
// data shards and folded into the parity as they pass; every finished
// block is hashed into the manifest and handed to put.
func encodeStream(params Params, owner *Identity, key, iv []byte, size int64, body func(io.Writer) error, description string, put func(i int, block []byte) error) (*Manifest, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, ErrEmptyArchive
	}
	if size > math.MaxInt-sealOverhead {
		return nil, fmt.Errorf("backup: archive of %d bytes is too large", size)
	}
	enc, err := erasure.New(params.DataBlocks, params.ParityBlocks)
	if err != nil {
		return nil, err
	}
	m := &Manifest{
		SealedSize:  int(size) + sealOverhead,
		Params:      params,
		BlockIDs:    make([]storage.BlockID, params.Total()),
		Description: description,
	}
	stream, err := enc.NewStream(m.shardSize())
	if err != nil {
		return nil, err
	}
	emit := func(i int, block []byte) error {
		m.BlockIDs[i] = storage.IDOf(block)
		return put(i, block)
	}
	id := sha256.New()
	shards := &shardWriter{stream: stream, last: params.DataBlocks - 1, left: m.SealedSize, emit: emit}
	sealed, err := newSealer(io.MultiWriter(id, shards), key, iv)
	if err != nil {
		return nil, err
	}
	if err := body(sealed); err != nil {
		return nil, err
	}
	if err := sealed.Close(); err != nil {
		return nil, err
	}
	if err := shards.finish(); err != nil {
		return nil, err
	}
	if err := stream.Parity(emit); err != nil {
		return nil, err
	}
	id.Sum(m.ID[:0])
	if m.WrappedKey, err = WrapKey(owner.Public(), key); err != nil {
		return nil, err
	}
	return m, nil
}

// shardWriter cuts the sealed stream into the archive's data shards:
// shard i is bytes i*S..(i+1)*S-1 of it, the tail padded with zeros.
type shardWriter struct {
	stream *erasure.Stream
	cur    []byte // the shard being filled, nil before the first byte
	fill   int    // bytes of cur written
	index  int    // cur's index
	last   int    // index of the last data shard
	left   int    // sealed bytes still to come
	emit   func(i int, shard []byte) error
}

func (w *shardWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		return 0, fmt.Errorf("backup: archive stream is longer than the %d bytes announced", w.left)
	}
	w.left -= len(p)
	for rest := p; len(rest) > 0; {
		if w.fill == len(w.cur) {
			if err := w.advance(); err != nil {
				return 0, err
			}
		}
		n := copy(w.cur[w.fill:], rest)
		w.fill += n
		rest = rest[n:]
	}
	return len(p), nil
}

// advance emits the shard in hand, if any, and takes up the next.
func (w *shardWriter) advance() error {
	if w.cur != nil {
		if err := w.emit(w.index, w.cur); err != nil {
			return err
		}
		w.index++
	}
	w.cur, w.fill = w.stream.Next(), 0
	return nil
}

// finish pads the shard in hand with zeros and emits it and the
// all-padding shards a short archive leaves after it.
func (w *shardWriter) finish() error {
	if w.left != 0 || w.cur == nil {
		return fmt.Errorf("backup: archive stream ended %d bytes short of what was announced", w.left)
	}
	for {
		clear(w.cur[w.fill:])
		if w.index == w.last {
			return w.emit(w.index, w.cur)
		}
		if err := w.advance(); err != nil {
			return err
		}
	}
}

// Restore errors.
var (
	ErrTooFewBlocks = errors.New("backup: not enough blocks to restore")
	ErrBlockHash    = errors.New("backup: block content does not match manifest")
	ErrManifest     = errors.New("backup: invalid manifest")
)

// shardSize is the length of every block of the archive: the sealed
// size over k, rounded up.
func (m *Manifest) shardSize() int { return (m.SealedSize-1)/m.Params.DataBlocks + 1 }

// Gather collects up to limit of the archive's blocks in index order,
// which is data blocks first, so that an intact archive is read without
// a decode. fetch is asked for block i and returns its content, or nil
// when it cannot be had intact, in which case the next index is tried.
// It returns the blocks by index, absent ones nil, and how many it got.
func (m *Manifest) Gather(limit int, fetch func(i int, id storage.BlockID) []byte) (blocks [][]byte, found int) {
	blocks = make([][]byte, len(m.BlockIDs))
	for i, id := range m.BlockIDs {
		if found == limit {
			break
		}
		if blocks[i] = fetch(i, id); blocks[i] != nil {
			found++
		}
	}
	return blocks, found
}

// DecodeArchive reverses EncodeArchive: blocks[i] must be the archive's
// i-th block or nil if unavailable; any k present blocks suffice. The
// owner's identity unwraps the session key. The plaintext is returned
// only after every block id, the archive hash and the MAC have checked
// out, and it costs one buffer of k blocks beyond the blocks passed in:
// the data shards are copied or reconstructed into it where they
// belong, and it is hashed, authenticated and decrypted where it lies.
func DecodeArchive(m *Manifest, owner *Identity, blocks [][]byte) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	k, size := m.Params.DataBlocks, m.shardSize()
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
	return nil
}

// Marshal serialises the manifest.
func (m *Manifest) Marshal() ([]byte, error) { return json.Marshal(m) }

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
	for _, m := range mb.Manifests {
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	return json.Marshal(mb)
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
	for _, m := range mb.Manifests {
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	return &mb, nil
}
