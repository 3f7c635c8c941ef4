// Package backup implements the data path of the backup system the
// paper describes in section 2.2: files are collected into archives,
// encrypted under a per-archive session key, split into k data blocks,
// expanded to n = k+m erasure-coded blocks (one per partner), and
// described by a manifest; a master block ties the archives together
// and wraps the session keys under the owner's public key so that only
// the owner's private key can restore.
//
// Restore is the exact reverse: fetch any k blocks of each archive,
// reconstruct, verify, decrypt, unpack.
package backup

import (
	"archive/tar"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Archive packaging errors.
var (
	ErrEmptyArchive = errors.New("backup: archive contains no files")
	ErrUnsafePath   = errors.New("backup: entry path escapes the restore root")
)

// FileEntry is one file captured into an archive.
type FileEntry struct {
	// Path is the slash-separated path relative to the backup root.
	Path string
	// Mode is the file mode.
	Mode fs.FileMode
	// ModTime is the file's modification time.
	ModTime time.Time
	// Data is the file content.
	Data []byte
}

// PackFiles serialises entries into a deterministic tar stream (sorted
// by path). The result is the plaintext archive the paper's pipeline
// encrypts and encodes.
func PackFiles(entries []FileEntry) ([]byte, error) {
	if len(entries) == 0 {
		return nil, ErrEmptyArchive
	}
	sorted := append([]FileEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	// Size the buffer once instead of doubling up to the archive: per
	// entry the content rounded up to tar's 512-byte blocks and three
	// header blocks (ustar, plus a PAX header and its records when the
	// mtime has sub-second precision), then the two-block end marker.
	total := 2 * 512
	for _, e := range sorted {
		total += (len(e.Data)+511)&^511 + 3*512
	}
	var buf bytes.Buffer
	buf.Grow(total)
	tw := tar.NewWriter(&buf)
	for _, e := range sorted {
		if e.Path == "" {
			return nil, errors.New("backup: entry with empty path")
		}
		hdr := &tar.Header{
			Name:    filepath.ToSlash(e.Path),
			Mode:    int64(e.Mode.Perm()),
			Size:    int64(len(e.Data)),
			ModTime: e.ModTime,
			Format:  tar.FormatPAX,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return nil, fmt.Errorf("backup: tar header %q: %w", e.Path, err)
		}
		if _, err := tw.Write(e.Data); err != nil {
			return nil, fmt.Errorf("backup: tar data %q: %w", e.Path, err)
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnpackFiles parses a tar stream produced by PackFiles.
func UnpackFiles(archive []byte) ([]FileEntry, error) {
	r := bytes.NewReader(archive)
	tr := tar.NewReader(r)
	var out []FileEntry
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("backup: tar read: %w", err)
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		// The content must still be ahead in the archive, so a lying
		// header cannot force an allocation larger than its input.
		if hdr.Size < 0 || hdr.Size > int64(r.Len()) {
			return nil, fmt.Errorf("backup: tar entry %q claims %d bytes, %d remain", hdr.Name, hdr.Size, r.Len())
		}
		data := make([]byte, hdr.Size)
		if _, err := io.ReadFull(tr, data); err != nil {
			return nil, fmt.Errorf("backup: tar content %q: %w", hdr.Name, err)
		}
		out = append(out, FileEntry{
			Path:    hdr.Name,
			Mode:    fs.FileMode(hdr.Mode).Perm(),
			ModTime: hdr.ModTime,
			Data:    data,
		})
	}
	if len(out) == 0 {
		return nil, ErrEmptyArchive
	}
	return out, nil
}

// CollectDir walks a directory and captures every regular file as an
// entry, paths relative to root.
func CollectDir(root string) ([]FileEntry, error) {
	var out []FileEntry
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out = append(out, FileEntry{
			Path:    filepath.ToSlash(rel),
			Mode:    info.Mode().Perm(),
			ModTime: info.ModTime(),
			Data:    data,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, ErrEmptyArchive
	}
	return out, nil
}

// WriteDir materialises entries under root, refusing paths that escape
// it.
func WriteDir(root string, entries []FileEntry) error {
	for _, e := range entries {
		clean := filepath.Clean(filepath.FromSlash(e.Path))
		if strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
			return fmt.Errorf("%w: %q", ErrUnsafePath, e.Path)
		}
		dst := filepath.Join(root, clean)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		mode := e.Mode.Perm()
		if mode == 0 {
			mode = 0o644
		}
		if err := os.WriteFile(dst, e.Data, mode); err != nil {
			return err
		}
	}
	return nil
}
