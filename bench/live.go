package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"p2pbackup/internal/backup"
	"p2pbackup/internal/storage"
)

// Code shape of the live workload: the paper's 128+128, one block per peer.
const (
	liveK     = 128
	liveM     = 128
	livePeers = liveK + liveM
)

func peerDir(repo string, i int) string { return filepath.Join(repo, fmt.Sprintf("peer-%03d", i)) }

// dropPeers deletes peers lo..hi-1 of a repository, as a departed peer
// takes its block store with it.
func dropPeers(repo string, lo, hi int) error {
	for i := lo; i < hi; i++ {
		if err := os.RemoveAll(peerDir(repo, i)); err != nil {
			return err
		}
	}
	return nil
}

// storedBytes is what the peers of a repository hold.
func storedBytes(repo string) (int64, error) {
	var total int64
	err := filepath.WalkDir(repo, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		if rel, _ := filepath.Rel(repo, p); !strings.HasPrefix(rel, "peer-") {
			return nil // the master block and the identity are the owner's
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// liveStep is one public call of the live pipeline and the layer metric
// its time is charged to.
type liveStep struct {
	metric, name string
	call         func() error
}

// liveReplay makes the calls cmd/p2pbackup makes for `backup`, then,
// with every data block's peer gone, the calls it makes for `restore`,
// in process and with a span around each public call. It fills the
// backup.* and storage.* layer metrics and returns the seconds spent on
// each side.
func liveReplay(tr *tracer, parent int, src, repo, dst string, layer map[string]float64) (backupS, restoreS float64, err error) {
	run := func(steps []liveStep) (total float64, err error) {
		for _, s := range steps {
			id := tr.begin(s.name, parent)
			err := s.call()
			tr.end(id)
			if err != nil {
				return total, fmt.Errorf("%s: %w", s.name, err)
			}
			layer[s.metric] = tr.get(id).seconds()
			total += layer[s.metric]
		}
		return total, nil
	}

	params := backup.Params{DataBlocks: liveK, ParityBlocks: liveM}
	var (
		entries   []backup.FileEntry
		plaintext []byte
		identity  *backup.Identity
		blocks    [][]byte
		manifest  *backup.Manifest
		stored    int64
	)
	backupS, err = run([]liveStep{
		{"backup.collect_s", "backup.CollectDir", func() (err error) { entries, err = backup.CollectDir(src); return }},
		{"backup.pack_s", "backup.PackFiles", func() (err error) { plaintext, err = backup.PackFiles(entries); return }},
		{"backup.keygen_s", "backup.NewIdentity", func() (err error) { identity, err = backup.NewIdentity(); return }},
		{"backup.encode_s", "backup.EncodeArchive", func() (err error) {
			blocks, manifest, err = backup.EncodeArchive(params, identity, plaintext, src)
			return
		}},
		{"storage.put_s", "storage.Put", func() error {
			for i, block := range blocks {
				st, err := storage.OpenDiskStore(peerDir(repo, i%livePeers), 0)
				if err != nil {
					return err
				}
				if _, err := st.Put(block); err != nil {
					return err
				}
				stored += int64(len(block))
			}
			return nil
		}},
	})
	if err != nil {
		return
	}
	layer["storage.bytes_stored_per_user_byte"] = float64(stored) / float64(liveTree.bytes())

	// The departed peers hold every data block, so the decode is the worst case.
	blocks, plaintext = nil, nil
	if err = dropPeers(repo, 0, liveK); err != nil {
		return
	}

	restoreS, err = run([]liveStep{
		{"storage.get_s", "storage.Get", func() error {
			// cmd/p2pbackup's gatherBlocks: every surviving store is asked
			// for every block until one has it.
			dirs, err := filepath.Glob(filepath.Join(repo, "peer-*"))
			if err != nil {
				return err
			}
			var stores []storage.Store
			for _, d := range dirs {
				st, err := storage.OpenDiskStore(d, 0)
				if err != nil {
					return err
				}
				stores = append(stores, st)
			}
			blocks = make([][]byte, params.Total())
			for i, id := range manifest.BlockIDs {
				for _, st := range stores {
					if data, err := st.Get(id); err == nil {
						blocks[i] = data
						break
					}
				}
			}
			return nil
		}},
		{"backup.decode_s", "backup.DecodeArchive", func() (err error) {
			plaintext, err = backup.DecodeArchive(manifest, identity, blocks)
			return
		}},
		{"backup.unpack_s", "backup.UnpackFiles", func() (err error) { entries, err = backup.UnpackFiles(plaintext); return }},
		{"backup.writedir_s", "backup.WriteDir", func() error { return backup.WriteDir(dst, entries) }},
	})
	return
}
