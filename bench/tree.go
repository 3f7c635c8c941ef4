package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
)

// treeShape is the live workload's source tree: a few large files and
// many small ones, 48 MiB in all, filled with seeded random bytes so the
// erasure code and the cipher see incompressible data.
type treeShape struct {
	BigFiles, BigSize     int
	SmallFiles, SmallSize int
}

var liveTree = treeShape{BigFiles: 32, BigSize: 1 << 20, SmallFiles: 256, SmallSize: 64 << 10}

func (s treeShape) bytes() int64 {
	return int64(s.BigFiles)*int64(s.BigSize) + int64(s.SmallFiles)*int64(s.SmallSize)
}

// writeTree creates the tree under root; equal seeds give equal trees.
func writeTree(root string, shape treeShape, seed uint64) error {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], seed)
	src := rand.NewChaCha8(key)
	write := func(dir string, n, size int) error {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			return err
		}
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			_, _ = src.Read(buf) // ChaCha8.Read never fails
			name := filepath.Join(root, dir, fmt.Sprintf("f%03d.bin", i))
			if err := os.WriteFile(name, buf, 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("big", shape.BigFiles, shape.BigSize); err != nil {
		return err
	}
	return write("small", shape.SmallFiles, shape.SmallSize)
}

// digestFiles hashes the regular files under root whose relative path
// keep accepts, names and contents, in path order: two trees are
// byte-identical exactly when their digests are equal.
func digestFiles(root string, keep func(rel string) bool) (string, int64, error) {
	var rels []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			if keep == nil || keep(rel) {
				rels = append(rels, filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		return "", 0, err
	}
	sort.Strings(rels)
	h := sha256.New()
	var total int64
	for _, rel := range rels {
		f, err := os.Open(filepath.Join(root, rel))
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(h, "%s\x00", rel)
		n, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(h, "\x00%d\x00", n)
		total += n
	}
	return hex.EncodeToString(h.Sum(nil)), total, nil
}
