package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p2pbackup/internal/backup"
)

// run calls one subcommand and returns what it printed.
func run(t *testing.T, cmd func([]string) error, args ...string) (string, error) {
	t.Helper()
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = cmd(args)
	w.Close()
	return <-out, err
}

// sameTree fails unless the regular files under a and b have the same
// names and contents.
func sameTree(t *testing.T, a, b string) {
	t.Helper()
	read := func(root string) map[string][]byte {
		files := map[string][]byte{}
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.Type().IsRegular() {
				return err
			}
			rel, _ := filepath.Rel(root, p)
			files[rel], err = os.ReadFile(p)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	fa, fb := read(a), read(b)
	if len(fa) != len(fb) {
		t.Fatalf("%s has %d files, %s has %d", a, len(fa), b, len(fb))
	}
	for rel, data := range fa {
		if other, ok := fb[rel]; !ok || !bytes.Equal(data, other) {
			t.Fatalf("%s differs between %s and %s", rel, a, b)
		}
	}
}

func sourceTree(t *testing.T) string {
	t.Helper()
	src := t.TempDir()
	for rel, size := range map[string]int{"a/one.bin": 40_000, "a/two.txt": 12, "three.bin": 9000, "empty": 0} {
		p := filepath.Join(src, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*31 + size)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return src
}

// blockFile returns the one block file peer i of the repository holds.
func blockFile(t *testing.T, repo string, i int) string {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(repo, fmt.Sprintf("peer-%03d", i), "*", "*"))
	if len(files) != 1 {
		t.Fatalf("peer %d holds %d blocks, want 1", i, len(files))
	}
	return files[0]
}

func TestBackupVerifyRestore(t *testing.T) {
	src, repo := sourceTree(t), t.TempDir()
	out, err := run(t, cmdBackup, "-src", src, "-repo", repo)
	if err != nil || !strings.Contains(out, "backed up 4 files") || !strings.Contains(out, "as 8 blocks over 12 peers; tolerate 4 peer losses") {
		t.Fatalf("backup: %q, %v", out, err)
	}
	if out, err := run(t, cmdVerify, "-repo", repo); err != nil || out != "archive 0: 8/8 blocks present (need 4): OK\n" {
		t.Fatalf("verify: %q, %v", out, err)
	}
	// An intact repository is restored from its k data blocks alone.
	dst := t.TempDir()
	if out, err := run(t, cmdRestore, "-repo", repo, "-dst", dst); err != nil || out != "archive 0: restored 4 files from 4/8 blocks\n" {
		t.Fatalf("restore: %q, %v", out, err)
	}
	sameTree(t, src, dst)

	// A data block that no longer hashes to its name counts as absent:
	// verify says so, and restore takes the first parity block for it.
	bad := blockFile(t, repo, 1)
	data, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := run(t, cmdVerify, "-repo", repo); err != nil || out != "archive 0: 7/8 blocks present (need 4): DEGRADED\n" {
		t.Fatalf("verify with a corrupt block: %q, %v", out, err)
	}
	dst = t.TempDir()
	if out, err := run(t, cmdRestore, "-repo", repo, "-dst", dst); err != nil || out != "archive 0: restored 4 files from 4/8 blocks\n" {
		t.Fatalf("restore with a corrupt block: %q, %v", out, err)
	}
	sameTree(t, src, dst)

	// k-1 intact blocks: verify exits non-zero, restore writes nothing.
	for _, i := range []int{0, 2, 4, 5} {
		if err := os.RemoveAll(filepath.Join(repo, fmt.Sprintf("peer-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if out, err := run(t, cmdVerify, "-repo", repo); err == nil || out != "archive 0: 3/8 blocks present (need 4): UNRECOVERABLE\n" {
		t.Fatalf("verify with 3 of 8: %q, %v", out, err)
	}
	dst = t.TempDir()
	if _, err := run(t, cmdRestore, "-repo", repo, "-dst", dst); !errors.Is(err, backup.ErrTooFewBlocks) {
		t.Fatalf("restore with 3 of 8: err = %v, want ErrTooFewBlocks", err)
	}
	if left, _ := os.ReadDir(dst); len(left) != 0 {
		t.Fatalf("a failed restore wrote %d entries", len(left))
	}
}

// Blocks are stored while the source is still being read, so a backup
// that fails part-way must take them back and publish no master block.
func TestFailedBackupLeavesNoBlocks(t *testing.T) {
	src, repo := sourceTree(t), t.TempDir()
	// Peer 5's store cannot be opened: blocks 0..4 are already placed by
	// the time the backup finds out.
	if err := os.WriteFile(filepath.Join(repo, "peer-005"), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(t, cmdBackup, "-src", src, "-repo", repo); err == nil {
		t.Fatal("backup succeeded without peer 5")
	}
	err := filepath.WalkDir(repo, func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() && filepath.Base(p) != "peer-005" {
			t.Errorf("the failed backup left %s behind", p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// testdata/parent holds a source tree and the repository the commit
// before the streamed pipeline (3f18306) made of it with
// `p2pbackup backup -src src -repo repo` (4+4 over 12 peers). The format
// has not changed if it still restores, from its data blocks and from
// its parity blocks alone.
func TestRestoresParentWrittenRepository(t *testing.T) {
	const fixture = "testdata/parent"
	if out, err := run(t, cmdVerify, "-repo", fixture+"/repo"); err != nil || out != "archive 0: 8/8 blocks present (need 4): OK\n" {
		t.Fatalf("verify: %q, %v", out, err)
	}
	dst := t.TempDir()
	if _, err := run(t, cmdRestore, "-repo", fixture+"/repo", "-dst", dst); err != nil {
		t.Fatal(err)
	}
	sameTree(t, fixture+"/src", dst)

	repo := t.TempDir()
	if err := os.CopyFS(repo, os.DirFS(fixture+"/repo")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := os.RemoveAll(filepath.Join(repo, fmt.Sprintf("peer-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	dst = t.TempDir()
	if _, err := run(t, cmdRestore, "-repo", repo, "-dst", dst); err != nil {
		t.Fatal(err)
	}
	sameTree(t, fixture+"/src", dst)
}
