//go:build linux && !race

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// TestMain lets the test binary stand in for the command: run with a
// subcommand for its first argument it is p2pbackup, so that a test can
// measure the command as a process of its own.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "backup" || os.Args[1] == "restore") {
		main()
		return
	}
	os.Exit(m.Run())
}

// seededTree writes a tree of 1 MiB files of seeded random bytes, size
// MiB in all, so that cipher and code see incompressible data.
func seededTree(t *testing.T, mib int) string {
	t.Helper()
	root := t.TempDir()
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], uint64(mib))
	src := rand.NewChaCha8(key)
	buf := make([]byte, 1<<20)
	for i := 0; i < mib; i++ {
		_, _ = src.Read(buf) // ChaCha8.Read never fails
		dir := filepath.Join(root, fmt.Sprintf("d%02d", i%7))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("f%03d.bin", i)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// treeDigest hashes the names and contents of the regular files under
// root, in the walk's order, through one small buffer.
func treeDigest(t *testing.T, root string) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	buf := make([]byte, 64<<10)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := io.CopyBuffer(h, struct{ io.Reader }{f}, buf)
		fmt.Fprintf(h, "\x00%s\x00%d\x00", filepath.ToSlash(rel), n)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// peakRSS runs the test binary as p2pbackup with args and returns the
// most memory the process had resident, in MiB, the way the repository's
// benchmark measures it: ru_maxrss of the waited-for child. Linux starts
// a child's high-water mark at its parent's, so the reading is only the
// child's own while this process stays smaller than the child: the test
// writes and compares its trees through one buffer for that reason.
func peakRSS(t *testing.T, args ...string) float64 {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("p2pbackup %v: %v\n%s", args, err, out)
	}
	return float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024 // KiB on Linux
}

// What backup and restore hold is a stripe, whatever the size of the
// tree: at the paper's 128+128, with every data block's peer gone so
// that the restore decodes every stripe, neither command may have more
// than 40 MiB resident (they have about 12; holding the parity, or k
// blocks and the sealed archive, took 62 and 105 MiB for 48 MiB of files)
// and eight times the tree may not cost 8 MiB more.
func TestMemoryIndependentOfTreeSize(t *testing.T) {
	const limit, spread = 40.0, 8.0
	sizes := []int{16, 128}
	if testing.Short() {
		sizes = sizes[:1]
	}
	var backupRSS, restoreRSS []float64
	for _, mib := range sizes {
		src, repo, dst := seededTree(t, mib), t.TempDir(), t.TempDir()
		b := peakRSS(t, "backup", "-src", src, "-repo", repo, "-peers", "256", "-k", "128", "-m", "128")
		for i := 0; i < 128; i++ {
			if err := os.RemoveAll(filepath.Join(repo, fmt.Sprintf("peer-%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		r := peakRSS(t, "restore", "-repo", repo, "-dst", dst)
		if treeDigest(t, dst) != treeDigest(t, src) {
			t.Errorf("%d MiB tree: the restored tree differs from the source", mib)
		}
		t.Logf("%3d MiB tree: backup %.1f MiB, restore %.1f MiB resident at most", mib, b, r)
		if b > limit || r > limit {
			t.Errorf("%d MiB tree: backup had %.1f MiB resident and restore %.1f, want at most %.0f", mib, b, r, limit)
		}
		backupRSS, restoreRSS = append(backupRSS, b), append(restoreRSS, r)
	}
	for name, rss := range map[string][]float64{"backup": backupRSS, "restore": restoreRSS} {
		if len(rss) == 2 && rss[1]-rss[0] > spread {
			t.Errorf("%s: %.1f MiB resident for 16 MiB of files and %.1f for 128: memory grows with the tree", name, rss[0], rss[1])
		}
	}
}
