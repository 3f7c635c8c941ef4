// Command p2pbackup backs a directory up into a local cluster of block
// stores using the full pipeline (encrypt, Reed-Solomon encode,
// distribute one block per peer) and restores it even after peers are
// deleted.
//
// Usage:
//
//	p2pbackup backup  -src ./mydata  -repo ./repo [-peers 12] [-k 4] [-m 4]
//	p2pbackup restore -repo ./repo   -dst ./recovered
//	p2pbackup verify  -repo ./repo
//
// The repo directory holds one block-store subdirectory per simulated
// peer, the owner's private key (identity.pem) and the master block
// (master.json). Deleting up to m whole peer directories must not
// prevent a restore; deleting more must fail loudly rather than return
// corrupt data. A backup into an existing repository reuses its key; into
// a repository without one it makes a new key while the tree streams and
// puts it in place before any block is committed. Its one commit point is
// the rename that replaces master.json: until then the repository
// restores the previous backup, from then on this one.
package main

import (
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"p2pbackup/internal/backup"
	"p2pbackup/internal/storage"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "backup":
		err = cmdBackup(os.Args[2:])
	case "restore":
		err = cmdRestore(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2pbackup:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  p2pbackup backup  -src DIR -repo DIR [-peers N] [-k K] [-m M]
  p2pbackup restore -repo DIR -dst DIR
  p2pbackup verify  -repo DIR`)
	os.Exit(2)
}

func cmdBackup(args []string) (err error) {
	fs := flag.NewFlagSet("backup", flag.ExitOnError)
	src := fs.String("src", "", "directory to back up")
	repo := fs.String("repo", "", "repository directory")
	peers := fs.Int("peers", 12, "number of simulated peers")
	k := fs.Int("k", 4, "data blocks per archive")
	m := fs.Int("m", 4, "parity blocks per archive")
	_ = fs.Parse(args)
	if *src == "" || *repo == "" {
		return fmt.Errorf("backup needs -src and -repo")
	}
	params := backup.Params{DataBlocks: *k, ParityBlocks: *m}
	if err := params.Validate(); err != nil {
		return err
	}
	if *peers < params.Total() {
		return fmt.Errorf("need at least n=%d peers for one block per peer, got %d", params.Total(), *peers)
	}
	// Blocks reach the peers a stripe at a time while the source is still
	// being read, so a backup that fails takes back what it stored (best
	// effort): without a master block naming them the blocks are nobody's.
	// The backup's one commit point is the rename that puts its master
	// block in place; from there on nothing is taken back.
	var undo []func()
	defer func() {
		if err != nil {
			for _, remove := range undo {
				remove()
			}
		}
	}()
	// The repository's key opens the master block in place; a backup that
	// cannot read it stops before storing anything. A repository without
	// one gets a new key, made while the tree streams and put in place
	// when the session key is wrapped: before any block is committed.
	identityPath := filepath.Join(*repo, "identity.pem")
	identity, err := readIdentity(identityPath)
	owner := func() (*backup.Identity, error) { return identity, nil }
	if errors.Is(err, os.ErrNotExist) {
		var (
			keygen sync.WaitGroup
			made   *backup.Identity
			failed error
		)
		keygen.Add(1)
		go func() {
			defer keygen.Done()
			made, failed = backup.NewIdentity()
		}()
		defer keygen.Wait()
		owner = func() (*backup.Identity, error) {
			keygen.Wait()
			if failed != nil {
				return nil, failed
			}
			// The peers' stores, opened below, have made the directory.
			return made, writeAtomic(identityPath, encodeIdentity(made), 0o600, func() {
				undo = append(undo, func() { _ = os.Remove(identityPath) })
			})
		}
	} else if err != nil {
		return err
	}
	// Distribute: block i goes to peer i (one block per partner). The
	// writers are opened up front, so that put touches nothing but its
	// own block's writer and the two halves of a stripe can be put at
	// once.
	stores := make([]*storage.DiskStore, params.Total())
	writers := make([]storage.BlockWriter, params.Total())
	for i := range writers {
		if stores[i], err = storage.OpenDiskStore(filepath.Join(*repo, fmt.Sprintf("peer-%03d", i%*peers)), 0); err != nil {
			return err
		}
		if writers[i], err = stores[i].NewWriter(); err != nil {
			return err
		}
		undo = append(undo, writers[i].Abort)
	}
	manifest, files, size, err := backup.EncodeDir(params, owner, *src, *src, func(i int, chunk []byte) error {
		_, err := writers[i].Write(chunk)
		return err
	})
	if err != nil {
		return err
	}
	// Each Commit is an fsync and a rename; a few at once overlap them.
	ids := make([]storage.BlockID, len(writers))
	errs := make([]error, len(writers))
	fresh := make([]bool, len(writers)) // not a block the peer already had
	var commits sync.WaitGroup
	for w := range committers {
		commits.Add(1)
		go func() {
			defer commits.Done()
			for i := w; i < len(writers); i += committers {
				held := stores[i].Len()
				ids[i], errs[i] = writers[i].Commit()
				fresh[i] = errs[i] == nil && stores[i].Len() > held
			}
		}()
	}
	commits.Wait()
	for i, st := range stores {
		if fresh[i] {
			undo = append(undo, func() { _ = st.Delete(ids[i]) })
		}
	}
	partners := map[int][]string{}
	for i, st := range stores {
		if errs[i] != nil {
			return errs[i]
		}
		if ids[i] != manifest.BlockIDs[i] {
			return fmt.Errorf("block %d was stored as %s, the manifest names it %s", i, ids[i], manifest.BlockIDs[i])
		}
		partners[0] = append(partners[0], filepath.Base(st.Root()))
	}
	mb := &backup.MasterBlock{Manifests: []*backup.Manifest{manifest}, Partners: partners}
	raw, err := backup.MarshalMasterBlock(mb)
	if err != nil {
		return err
	}
	if err := writeAtomic(filepath.Join(*repo, "master.json"), raw, 0o644, func() { undo = nil }); err != nil {
		return err
	}
	fmt.Printf("backed up %d files (%d bytes) as %d blocks over %d peers; tolerate %d peer losses\n",
		files, size, params.Total(), *peers, params.ParityBlocks)
	return nil
}

func cmdRestore(args []string) error {
	fs := flag.NewFlagSet("restore", flag.ExitOnError)
	repo := fs.String("repo", "", "repository directory")
	dst := fs.String("dst", "", "directory to restore into")
	_ = fs.Parse(args)
	if *repo == "" || *dst == "" {
		return fmt.Errorf("restore needs -repo and -dst")
	}
	identity, mb, err := loadRepo(*repo)
	if err != nil {
		return err
	}
	return restore(identity, mb, openStores(*repo), *dst)
}

// restore writes the files of every archive the master block lists under
// dst, from the blocks the stores hold.
func restore(identity *backup.Identity, mb *backup.MasterBlock, stores []storage.Store, dst string) error {
	for idx, manifest := range mb.Manifests {
		// k intact blocks are all a restore needs, data blocks first; they
		// are read a stripe at a time, each through the file findBlocks
		// opened, and files appear in dst only once the whole archive has
		// proved authentic.
		blocks := findBlocks(stores, manifest.BlockIDs, manifest.Params.DataBlocks)
		files, found, err := backup.DecodeDir(manifest, identity, dst, func(i int, _ storage.BlockID) io.ReaderAt {
			return blocks[i] // nil stays nil
		})
		closeBlocks(blocks)
		if err != nil {
			return fmt.Errorf("archive %d (%d/%d blocks found): %w", idx, found, manifest.Params.Total(), err)
		}
		fmt.Printf("archive %d: restored %d files from %d/%d blocks\n",
			idx, files, found, manifest.Params.Total())
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	repo := fs.String("repo", "", "repository directory")
	_ = fs.Parse(args)
	if *repo == "" {
		return fmt.Errorf("verify needs -repo")
	}
	_, mb, err := loadRepo(*repo)
	if err != nil {
		return err
	}
	stores := openStores(*repo)
	exit := error(nil)
	for idx, manifest := range mb.Manifests {
		blocks := findBlocks(stores, manifest.BlockIDs, len(manifest.BlockIDs))
		found := 0
		for _, b := range blocks {
			if b != nil {
				found++
			}
		}
		closeBlocks(blocks)
		need := manifest.Params.DataBlocks
		status := "OK"
		if found < need {
			status = "UNRECOVERABLE"
			exit = fmt.Errorf("archive %d unrecoverable", idx)
		} else if found < manifest.Params.Total() {
			status = "DEGRADED"
		}
		fmt.Printf("archive %d: %d/%d blocks present (need %d): %s\n",
			idx, found, manifest.Params.Total(), need, status)
	}
	return exit
}

func loadRepo(repo string) (*backup.Identity, *backup.MasterBlock, error) {
	identity, err := readIdentity(filepath.Join(repo, "identity.pem"))
	if err != nil {
		return nil, nil, err
	}
	raw, err := os.ReadFile(filepath.Join(repo, "master.json"))
	if err != nil {
		return nil, nil, err
	}
	mb, err := backup.UnmarshalMasterBlock(raw)
	if err != nil {
		return nil, nil, err
	}
	return identity, mb, nil
}

// openStores opens every peer store of the repository that can be.
func openStores(repo string) []storage.Store {
	peerDirs, _ := filepath.Glob(filepath.Join(repo, "peer-*"))
	var stores []storage.Store
	for _, dir := range peerDirs {
		if st, err := storage.OpenDiskStore(dir, 0); err == nil {
			stores = append(stores, st)
		}
	}
	return stores
}

// committers is how many block commits a backup runs at once.
const committers = 4

// verifyBuffer is the buffer a block is re-hashed through.
const verifyBuffer = 128 << 10

// findBlocks looks for the blocks ids names, in index order, until limit
// of them were found intact, and returns them by index, open: nil where
// no store holds the block intact or where it was not looked for. Two
// goroutines take the ids in turn from one counter, each hashing through
// its own buffer, and a goroutine takes no further id once limit were
// found; every id before the last one taken has been looked for, so the
// first limit blocks found in index order are those a look at one id
// after the other would find.
func findBlocks(stores []storage.Store, ids []storage.BlockID, limit int) []storage.BlockReader {
	blocks := make([]storage.BlockReader, len(ids))
	var (
		next, found atomic.Int64
		lookers     sync.WaitGroup
	)
	for range 2 {
		lookers.Add(1)
		go func() {
			defer lookers.Done()
			buf := make([]byte, verifyBuffer)
			for found.Load() < int64(limit) {
				i := int(next.Add(1) - 1)
				if i >= len(ids) {
					return
				}
				if blocks[i] = findBlock(stores, ids[i], buf); blocks[i] != nil {
					found.Add(1)
				}
			}
		}()
	}
	lookers.Wait()
	return blocks
}

func closeBlocks(blocks []storage.BlockReader) {
	for _, b := range blocks {
		if b != nil {
			_ = b.Close() // only read
		}
	}
}

// findBlock returns the block, open, from the first store that holds it
// intact, or nil: a block that no longer hashes to its name counts as
// absent. The block is read through buf and never held.
func findBlock(stores []storage.Store, id storage.BlockID, buf []byte) storage.BlockReader {
	for _, st := range stores {
		if !st.Has(id) {
			continue
		}
		b, err := st.Open(id)
		if err != nil {
			continue
		}
		h := sha256.New()
		if _, err := io.CopyBuffer(h, io.NewSectionReader(b, 0, math.MaxInt64), buf); err == nil && storage.BlockID(h.Sum(nil)) == id {
			return b
		}
		_ = b.Close() // only read
	}
	return nil
}

// failStep, when set, is asked before each step of writeAtomic with the
// step ("create", "write", "sync", "rename", "sync dir") and the file's
// name, and that step fails with the error it returns. It is a test
// seam; the command leaves it nil.
var failStep func(step, file string) error

// writeAtomic puts data at path so that path names either its old
// content or all of the new one, whenever the process stops: a temp file
// in the same directory, written and synced, renamed over path, and the
// directory synced so the rename itself survives. renamed runs right
// after the rename, the instant path names the new content, even when
// syncing the directory then fails.
func writeAtomic(path string, data []byte, perm os.FileMode, renamed func()) (err error) {
	step := func(name string) error {
		if failStep == nil {
			return nil
		}
		return failStep(name, filepath.Base(path))
	}
	if err := step("create"); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if f != nil {
			_ = f.Close()
		}
		if err != nil && tmp != "" {
			_ = os.Remove(tmp)
		}
	}()
	if err := step("write"); err != nil {
		return err
	}
	if err := f.Chmod(perm); err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := step("sync"); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	err, f = f.Close(), nil
	if err != nil {
		return err
	}
	if err := step("rename"); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	tmp = ""
	if renamed != nil {
		renamed()
	}
	if err := step("sync dir"); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func encodeIdentity(id *backup.Identity) []byte {
	der := x509.MarshalPKCS1PrivateKey(id.Private)
	return pem.EncodeToMemory(&pem.Block{Type: "RSA PRIVATE KEY", Bytes: der})
}

func readIdentity(path string) (*backup.Identity, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	block, _ := pem.Decode(raw)
	if block == nil || block.Type != "RSA PRIVATE KEY" {
		return nil, fmt.Errorf("bad identity file %s", path)
	}
	key, err := x509.ParsePKCS1PrivateKey(block.Bytes)
	if err != nil {
		return nil, err
	}
	var _ *rsa.PrivateKey = key
	return &backup.Identity{Private: key}, nil
}
