package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"p2pbackup/internal/backup"
	"p2pbackup/internal/storage"
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

// readTree returns the contents of the regular files under root by
// their names relative to it.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
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

// sameTree fails unless the regular files under a and b have the same
// names and contents (what a tree that went through git keeps: see
// sameMeta for the rest).
func sameTree(t *testing.T, a, b string) {
	t.Helper()
	fa, fb := readTree(t, a), readTree(t, b)
	if len(fa) != len(fb) {
		t.Fatalf("%s has %d files, %s has %d", a, len(fa), b, len(fb))
	}
	for rel, data := range fa {
		if other, ok := fb[rel]; !ok || !bytes.Equal(data, other) {
			t.Fatalf("%s differs between %s and %s", rel, a, b)
		}
	}
}

// sameMeta fails unless the regular files under a have, under b, the
// same permissions and the same modification time to the second.
func sameMeta(t *testing.T, a, b string) {
	t.Helper()
	err := filepath.WalkDir(a, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		rel, _ := filepath.Rel(a, p)
		want, err := d.Info()
		if err != nil {
			return err
		}
		got, err := os.Stat(filepath.Join(b, rel))
		if err != nil {
			return err
		}
		if got.Mode() != want.Mode() || !got.ModTime().Truncate(time.Second).Equal(want.ModTime().Truncate(time.Second)) {
			t.Errorf("%s is %v modified %v in %s, %v modified %v in %s", rel, want.Mode(), want.ModTime(), a, got.Mode(), got.ModTime(), b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
	// What a restore must bring back besides names and contents: a mode
	// that is not the default and times that are not the restore's.
	if err := os.Chmod(filepath.Join(src, "a", "two.txt"), 0o600); err != nil {
		t.Fatal(err)
	}
	for rel, when := range map[string]time.Time{
		"three.bin": time.Date(2009, 3, 24, 9, 30, 0, 0, time.UTC),
		"a/one.bin": time.Date(2021, 12, 31, 23, 59, 59, 0, time.UTC),
	} {
		if err := os.Chtimes(filepath.Join(src, filepath.FromSlash(rel)), when, when); err != nil {
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
	sameMeta(t, src, dst)

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
	sameMeta(t, src, dst)

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

// leftBehind lists the regular files under a repository other than the
// ones the test planted there.
func leftBehind(t *testing.T, repo string, planted func(rel string) bool) []string {
	t.Helper()
	var left []string
	err := filepath.WalkDir(repo, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		if rel, _ := filepath.Rel(repo, p); !planted(filepath.ToSlash(rel)) {
			left = append(left, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// Blocks are stored a stripe at a time while the source is still being
// read, so a backup that fails part-way must take them back, temp files
// and committed blocks alike, and publish no master block.
func TestFailedBackupLeavesNoBlocks(t *testing.T) {
	// Peer 5's store cannot be opened: the writers of blocks 0..4, opened
	// before the first stripe, have made their temp files by the time the
	// backup finds out.
	t.Run("in the first stripe", func(t *testing.T) {
		src, repo := sourceTree(t), t.TempDir()
		if err := os.WriteFile(filepath.Join(repo, "peer-005"), []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := run(t, cmdBackup, "-src", src, "-repo", repo); err == nil {
			t.Fatal("backup succeeded without peer 5")
		}
		if left := leftBehind(t, repo, func(rel string) bool { return rel == "peer-005" }); len(left) != 0 {
			t.Errorf("the failed backup left %v behind", left)
		}
	})
	// Peer 5 takes every stripe (the tree makes two) and then cannot give
	// the block its name, every directory a block could go to being a
	// file: blocks 0..4 are committed by then, 5..7 are temp files.
	t.Run("after the last stripe", func(t *testing.T) {
		src, repo := sourceTree(t), t.TempDir()
		if err := os.Mkdir(filepath.Join(repo, "peer-005"), 0o755); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 256; b++ {
			if err := os.WriteFile(filepath.Join(repo, "peer-005", fmt.Sprintf("%02x", b)), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, err := run(t, cmdBackup, "-src", src, "-repo", repo)
		if err == nil || !strings.Contains(err.Error(), "peer-005") {
			t.Fatalf("backup: err = %v, want peer 5's refusal", err)
		}
		planted := func(rel string) bool { return len(rel) == len("peer-005/xx") && strings.HasPrefix(rel, "peer-005/") }
		if left := leftBehind(t, repo, planted); len(left) != 0 {
			t.Errorf("the failed backup left %v behind", left)
		}
	})
}

// The commands hand work to goroutines (the new key, the halves of a
// stripe's parity rows and block puts, the commits, the block lookups),
// and every one of them is gone when its command returns but the one
// erasure helper, which the first run starts: repeated runs in one
// process leave as many goroutines as one run does. At 16+16 a stripe's
// parity rows, and with the data blocks gone its missing rows, are a
// product the helper takes half of.
func TestCommandsLeaveNoGoroutines(t *testing.T) {
	src := sourceTree(t)
	once := func() {
		repo := t.TempDir()
		if _, err := run(t, cmdBackup, "-src", src, "-repo", repo, "-peers", "32", "-k", "16", "-m", "16"); err != nil {
			t.Fatal(err)
		}
		if out, err := run(t, cmdVerify, "-repo", repo); err != nil || !strings.HasSuffix(out, ": OK\n") {
			t.Fatalf("verify: %q, %v", out, err)
		}
		for i := 0; i < 16; i++ {
			if err := os.RemoveAll(filepath.Join(repo, fmt.Sprintf("peer-%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		dst := t.TempDir()
		if _, err := run(t, cmdRestore, "-repo", repo, "-dst", dst); err != nil {
			t.Fatal(err)
		}
		sameTree(t, src, dst)
	}
	// A goroutine that has signalled its end may not have exited yet when
	// its command returns: settle waits, briefly, until no goroutine but
	// the helper runs (or was started by) the commands' code, and then
	// counts those that do, the helper included. The runtime's own
	// goroutines are not counted: the finalizer goroutine, for one, comes
	// and goes with the garbage collector.
	settle := func() int {
		buf := make([]byte, 1<<20)
		ours := func(helper bool) int {
			n := 0
			for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
				if (strings.Contains(g, "p2pbackup/internal/") || strings.Contains(g, "cmd/p2pbackup/main.go:")) && (helper || !strings.Contains(g, "erasure.help(")) {
					n++
				}
			}
			return n
		}
		for deadline := time.Now().Add(5 * time.Second); ours(false) > 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return ours(true)
	}
	once()
	after := settle()
	for range 3 {
		once()
	}
	if n := settle(); n != after {
		t.Fatalf("%d goroutines after four runs of the commands, %d after one", n, after)
	}
}

// tamperingStore flips a byte near the end of one block as soon as a
// reader has reached the block's end once: after restore has hashed the
// block and chosen it, before it reads it again stripe by stripe.
type tamperingStore struct {
	storage.Store
	victim string // the block's file
	done   bool
}

func (s *tamperingStore) Open(id storage.BlockID) (storage.BlockReader, error) {
	b, err := s.Store.Open(id)
	if err != nil || filepath.Base(s.victim) != id.String() {
		return b, err
	}
	return tamperingBlock{b, s}, nil
}

// tamperingBlock is the victim block, open.
type tamperingBlock struct {
	storage.BlockReader
	s *tamperingStore
}

func (b tamperingBlock) ReadAt(p []byte, off int64) (int, error) {
	s := b.s
	n, err := b.BlockReader.ReadAt(p, off)
	if err == io.EOF && !s.done {
		s.done = true
		data, rerr := os.ReadFile(s.victim)
		if rerr != nil {
			return n, rerr
		}
		data[len(data)-3] ^= 1 // in the last stripe
		if werr := os.WriteFile(s.victim, data, 0o644); werr != nil {
			return n, werr
		}
	}
	return n, err
}

// A block that goes bad after it was chosen, with no spare to take its
// place, fails the restore at the stripe it went bad in: loudly, and
// leaving of the stripes already written out no trace.
func TestFailedRestoreLeavesNothing(t *testing.T) {
	src, repo := sourceTree(t), t.TempDir()
	if _, err := run(t, cmdBackup, "-src", src, "-repo", repo); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2, 3} { // k blocks stay, all parity
		if err := os.RemoveAll(filepath.Join(repo, fmt.Sprintf("peer-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	identity, mb, err := loadRepo(repo)
	if err != nil {
		t.Fatal(err)
	}
	if mb.Manifests[0].Stripes < 2 {
		t.Fatalf("%d stripes: the block must go bad after a stripe was written out", mb.Manifests[0].Stripes)
	}
	stores := openStores(repo)
	tamper := &tamperingStore{victim: blockFile(t, repo, 6)}
	for i, st := range stores {
		if st.(*storage.DiskStore).Root() == filepath.Join(repo, "peer-006") {
			tamper.Store = st
			stores[i] = tamper
		}
	}
	dst := t.TempDir()
	err = restore(identity, mb, stores, dst)
	if !tamper.done {
		t.Fatal("the block was never read to its end")
	}
	if !errors.Is(err, backup.ErrDecrypt) || !strings.Contains(err.Error(), "archive 0 (4/8 blocks found)") {
		t.Fatalf("restore: err = %v, want ErrDecrypt for archive 0 from 4/8 blocks", err)
	}
	if left, _ := os.ReadDir(dst); len(left) != 0 {
		t.Fatalf("the failed restore left %d entries in the destination, the first %s", len(left), left[0].Name())
	}
}

// A master.json that lists a null manifest is refused with the
// manifest's index by verify and restore alike, before either looks for
// a block; it used to be dereferenced.
func TestNullManifestRefused(t *testing.T) {
	repo := t.TempDir()
	key, err := os.ReadFile("testdata/v2/repo/identity.pem")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(repo, "identity.pem"), key, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(repo, "master.json"), []byte(`{"version":1,"manifests":[null]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := run(t, cmdVerify, "-repo", repo); !errors.Is(err, backup.ErrManifest) || !strings.Contains(err.Error(), "manifest 0") || out != "" {
		t.Fatalf("verify: %q, err = %v, want ErrManifest naming manifest 0", out, err)
	}
	if _, err := run(t, cmdRestore, "-repo", repo, "-dst", t.TempDir()); !errors.Is(err, backup.ErrManifest) {
		t.Fatalf("restore: err = %v, want ErrManifest", err)
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

// testdata/v2 is the same for the striped format: a source tree of three
// stripes (among its names two that begin with two dots) and the
// repository this format's first commit made of it with `p2pbackup
// backup -src src -repo repo`. It is what the next change of format is
// held to, as testdata/parent is for this one: never regenerate it. The
// test has the shape of TestRestoresParentWrittenRepository, which is
// kept word for word.
func TestRestoresV2WrittenRepository(t *testing.T) {
	const fixture = "testdata/v2"
	if out, err := run(t, cmdVerify, "-repo", fixture+"/repo"); err != nil || out != "archive 0: 8/8 blocks present (need 4): OK\n" {
		t.Fatalf("verify: %q, %v", out, err)
	}
	dst := t.TempDir()
	if out, err := run(t, cmdRestore, "-repo", fixture+"/repo", "-dst", dst); err != nil || out != "archive 0: restored 7 files from 4/8 blocks\n" {
		t.Fatalf("restore: %q, %v", out, err)
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
