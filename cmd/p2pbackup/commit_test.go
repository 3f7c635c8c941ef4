package main

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// errInjected is the failure failStep hands a step.
var errInjected = errors.New("injected failure")

// crashed is what failStep panics with to stop a backup the way a crash
// would: mid-step, with nothing taken back (the undo list runs only on a
// returned error).
type crashed struct{}

// faultedBackup runs a backup whose i-th commit step (counting from 0)
// fails, by error or by crash, and returns the steps it reached and
// what cmdBackup returned. i < 0 injects nothing.
func faultedBackup(t *testing.T, i int, crash bool, args ...string) (steps []string, err error) {
	t.Helper()
	failStep = func(step, file string) error {
		steps = append(steps, file+" "+step)
		if len(steps)-1 != i {
			return nil
		}
		if crash {
			panic(crashed{})
		}
		return errInjected
	}
	defer func() { failStep = nil }()
	_, err = run(t, func(args []string) (err error) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashed); !ok {
					panic(r)
				}
				err = errInjected
			}
		}()
		return cmdBackup(args)
	}, args...)
	return steps, err
}

// restored restores repo into a fresh directory and says which of the
// source trees it brought back, byte for byte; it fails the test when
// verify or restore fails, or when the result is neither.
func restored(t *testing.T, repo string, trees map[string]string) string {
	t.Helper()
	if out, err := run(t, cmdVerify, "-repo", repo); err != nil || !strings.HasSuffix(out, ": OK\n") && !strings.HasSuffix(out, ": DEGRADED\n") {
		t.Fatalf("verify: %q, %v", out, err)
	}
	dst := t.TempDir()
	if _, err := run(t, cmdRestore, "-repo", repo, "-dst", dst); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got := readTree(t, dst)
	for name, src := range trees {
		if maps.EqualFunc(readTree(t, src), got, bytes.Equal) {
			return name
		}
	}
	t.Fatalf("restore of %s matches none of %v", repo, trees)
	return ""
}

// TestBackupHasOneCommitPoint backs tree B up over a repository holding
// tree A (a copy of the testdata/v2 fixture, whose key the backup must
// reuse) and fails each of the backup's commit writes in turn, by a
// returned error and by a crash. Whatever step fails, verify then says
// OK or DEGRADED and restore yields A or B byte for byte: A while the
// master block's rename has not happened, B from then on. The same holds
// for a first backup into an empty repository, where the new key is put
// in place before any block is committed and the only alternative to A
// is nothing.
func TestBackupHasOneCommitPoint(t *testing.T) {
	const fixture = "testdata/v2"
	key, err := os.ReadFile(fixture + "/repo/identity.pem")
	if err != nil {
		t.Fatal(err)
	}
	treeB := sourceTree(t)
	trees := map[string]string{"A": fixture + "/src", "B": treeB}
	overA := func(t *testing.T) string {
		repo := t.TempDir()
		if err := os.CopyFS(repo, os.DirFS(fixture+"/repo")); err != nil {
			t.Fatal(err)
		}
		return repo
	}

	repo := overA(t)
	steps, err := faultedBackup(t, -1, false, "-src", treeB, "-repo", repo)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"master.json create", "master.json write", "master.json sync", "master.json rename", "master.json sync dir"}
	if fmt.Sprint(steps) != fmt.Sprint(want) {
		t.Fatalf("backup over A took the steps %q, want %q (its key is reused, not rewritten)", steps, want)
	}
	if got, _ := os.ReadFile(filepath.Join(repo, "identity.pem")); !bytes.Equal(got, key) {
		t.Fatal("the backup replaced the repository's key")
	}
	if got := restored(t, repo, trees); got != "B" {
		t.Fatalf("a clean backup of B restores %s", got)
	}

	for _, crash := range []bool{false, true} {
		for i, step := range steps {
			t.Run(fmt.Sprintf("crash=%v/B over A/%s", crash, step), func(t *testing.T) {
				repo := overA(t)
				if _, err := faultedBackup(t, i, crash, "-src", treeB, "-repo", repo); !errors.Is(err, errInjected) {
					t.Fatalf("backup: err = %v, want the injected failure", err)
				}
				wantTree := "A"
				if i > slices.Index(steps, "master.json rename") {
					wantTree = "B"
				}
				if got := restored(t, repo, trees); got != wantTree {
					t.Fatalf("restore yields %s, want %s", got, wantTree)
				}
			})
		}
	}

	first, err := faultedBackup(t, -1, false, "-src", fixture+"/src", "-repo", t.TempDir())
	if err != nil || len(first) != 2*len(want) || !strings.HasPrefix(first[0], "identity.pem ") {
		t.Fatalf("a first backup took the steps %q (%v), want the key's five before the master block's", first, err)
	}
	for _, crash := range []bool{false, true} {
		for i, step := range first {
			t.Run(fmt.Sprintf("crash=%v/first backup/%s", crash, step), func(t *testing.T) {
				repo := t.TempDir()
				if _, err := faultedBackup(t, i, crash, "-src", fixture+"/src", "-repo", repo); !errors.Is(err, errInjected) {
					t.Fatalf("backup: err = %v, want the injected failure", err)
				}
				if i > slices.Index(first, "master.json rename") {
					if got := restored(t, repo, trees); got != "A" {
						t.Fatalf("restore yields %s, want A", got)
					}
					return
				}
				if _, err := os.Stat(filepath.Join(repo, "master.json")); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("a backup that failed before its commit point left a master block (%v)", err)
				}
				if !crash {
					if left := leftBehind(t, repo, func(string) bool { return false }); len(left) != 0 {
						t.Fatalf("a failed first backup left %v behind", left)
					}
				}
				// Whatever a crash left, the next backup goes through.
				if _, err := run(t, cmdBackup, "-src", fixture+"/src", "-repo", repo); err != nil {
					t.Fatalf("backup after the failure: %v", err)
				}
				if got := restored(t, repo, trees); got != "A" {
					t.Fatalf("restore after a retried backup yields %s, want A", got)
				}
			})
		}
	}
}

// A repository whose key cannot be read is refused before a block is
// stored: a new key would orphan the master block in place.
func TestBackupRefusesUnreadableKey(t *testing.T) {
	repo := t.TempDir()
	if err := os.CopyFS(repo, os.DirFS("testdata/v2/repo")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(repo, "identity.pem"), []byte("not a key"), 0o600); err != nil {
		t.Fatal(err)
	}
	before := leftBehind(t, repo, func(string) bool { return false })
	if _, err := run(t, cmdBackup, "-src", sourceTree(t), "-repo", repo); err == nil || !strings.Contains(err.Error(), "identity.pem") {
		t.Fatalf("backup: err = %v, want the unreadable key named", err)
	}
	if after := leftBehind(t, repo, func(string) bool { return false }); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("the refused backup changed the repository: %v, then %v", before, after)
	}
}
