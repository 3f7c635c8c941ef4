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
//
// Every stage exists once, as a stream: a tar writer, an
// encrypt-then-MAC writer and a writer that cuts what reaches it into
// data shards and keeps the parity (erasure.Stream). EncodeDir chains
// them from the files on disk to a put callback, so a backup holds the
// parity and one batch of shards, never the archive; PackFiles, Seal
// and EncodeArchive run the same stages over bytes already in memory.
// Restore is deliberately not a stream to disk: DecodeArchive rebuilds
// the sealed archive in one buffer, checks every block id, the archive
// hash and the MAC over it, and only then decrypts that buffer in place
// and lets UnpackFiles hand out slices of it. No plaintext byte exists,
// let alone reaches a file, before the whole archive is authentic.
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
	ErrEmptyArchive  = errors.New("backup: archive contains no files")
	ErrUnsafePath    = errors.New("backup: entry path escapes the restore root")
	ErrSourceChanged = errors.New("backup: file changed while it was backed up")
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

// tarFile is one file on its way into the tar stream: a FileEntry and
// its size, the content either in Data or, for a listed tree, still in
// the file named disk.
type tarFile struct {
	FileEntry
	size int64
	disk string
}

// contentWriter writes one file's content into the tar stream.
type contentWriter func(w io.Writer, f *tarFile) error

func fromMemory(w io.Writer, f *tarFile) error {
	_, err := w.Write(f.Data)
	return err
}

// fromDisk copies through one buffer. The file must still be there and
// yield exactly the size it was listed with, else ErrSourceChanged.
func fromDisk() contentWriter {
	buf := make([]byte, 128<<10)
	return func(w io.Writer, f *tarFile) error {
		src, err := os.Open(f.disk)
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %v", ErrSourceChanged, err)
		}
		if err != nil {
			return err
		}
		defer src.Close()
		// A LimitedReader, and not the file, so that CopyBuffer uses buf.
		n, err := io.CopyBuffer(w, &io.LimitedReader{R: src, N: f.size}, buf)
		if err != nil {
			return fmt.Errorf("read %s: %w", f.disk, err)
		}
		if n < f.size {
			return fmt.Errorf("%w: %s shrank from %d to %d bytes", ErrSourceChanged, f.disk, f.size, n)
		}
		if extra, _ := src.Read(buf[:1]); extra > 0 {
			return fmt.Errorf("%w: %s grew past its %d bytes", ErrSourceChanged, f.disk, f.size)
		}
		return nil
	}
}

var zeroBlock [32 << 10]byte

// zeros stands in for the content when only the length of the tar
// stream is wanted.
func zeros(w io.Writer, f *tarFile) error {
	for left := f.size; left > 0; {
		n, err := w.Write(zeroBlock[:min(left, int64(len(zeroBlock)))])
		if err != nil {
			return err
		}
		left -= int64(n)
	}
	return nil
}

// writeTar is the one tar writer: files, already in path order, become
// a deterministic PAX stream on w, each content written by body.
func writeTar(w io.Writer, files []tarFile, body contentWriter) error {
	if len(files) == 0 {
		return ErrEmptyArchive
	}
	tw := tar.NewWriter(w)
	for i := range files {
		f := &files[i]
		if f.Path == "" {
			return errors.New("backup: entry with empty path")
		}
		hdr := &tar.Header{
			Name:    filepath.ToSlash(f.Path),
			Mode:    int64(f.Mode.Perm()),
			Size:    f.size,
			ModTime: f.ModTime,
			Format:  tar.FormatPAX,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return fmt.Errorf("backup: tar header %q: %w", f.Path, err)
		}
		if err := body(tw, f); err != nil {
			return fmt.Errorf("backup: tar data %q: %w", f.Path, err)
		}
	}
	return tw.Close()
}

// countWriter counts the bytes written to it.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// tarSize returns the exact length of the stream writeTar makes of
// files, by a dry run of it with zeros for content: headers depend on
// names and times in ways only the tar writer knows.
func tarSize(files []tarFile) (int64, error) {
	var n countWriter
	err := writeTar(&n, files, zeros)
	return int64(n), err
}

func sortByPath(files []tarFile) {
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
}

// PackFiles serialises entries into a deterministic tar stream (sorted
// by path). The result is the plaintext archive the paper's pipeline
// encrypts and encodes.
func PackFiles(entries []FileEntry) ([]byte, error) {
	files := make([]tarFile, len(entries))
	for i, e := range entries {
		files[i] = tarFile{FileEntry: e, size: int64(len(e.Data))}
	}
	sortByPath(files)
	size, err := tarSize(files)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if err := writeTar(buf, files, fromMemory); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnpackFiles parses a tar stream produced by PackFiles. The entries'
// Data are slices of archive, not copies: they stay valid as long as
// archive is left alone.
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
		// The content must lie ahead in the archive as one run of
		// bytes: a header may neither claim more than is there nor
		// describe a sparse file, whose content the reader would
		// assemble from pieces. PackFiles writes neither.
		for key := range hdr.PAXRecords {
			if strings.HasPrefix(key, "GNU.sparse.") {
				return nil, fmt.Errorf("backup: tar entry %q is a sparse file", hdr.Name)
			}
		}
		if hdr.Size < 0 || hdr.Size > int64(r.Len()) {
			return nil, fmt.Errorf("backup: tar entry %q claims %d bytes, %d remain", hdr.Name, hdr.Size, r.Len())
		}
		lo := len(archive) - r.Len()
		hi := lo + int(hdr.Size)
		out = append(out, FileEntry{
			Path:    hdr.Name,
			Mode:    fs.FileMode(hdr.Mode).Perm(),
			ModTime: hdr.ModTime,
			Data:    archive[lo:hi:hi],
		})
	}
	if len(out) == 0 {
		return nil, ErrEmptyArchive
	}
	return out, nil
}

// listDir walks a directory and returns every regular file in path
// order, paths relative to root, contents left on disk.
func listDir(root string) ([]tarFile, error) {
	var out []tarFile
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
		info, err := d.Info()
		if err != nil {
			return err
		}
		out = append(out, tarFile{
			FileEntry: FileEntry{
				Path:    filepath.ToSlash(rel),
				Mode:    info.Mode().Perm(),
				ModTime: info.ModTime(),
			},
			size: info.Size(),
			disk: path,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, ErrEmptyArchive
	}
	sortByPath(out)
	return out, nil
}

// CollectDir walks a directory and captures every regular file as an
// entry, paths relative to root.
func CollectDir(root string) ([]FileEntry, error) {
	files, err := listDir(root)
	if err != nil {
		return nil, err
	}
	out := make([]FileEntry, len(files))
	for i, f := range files {
		if f.Data, err = os.ReadFile(f.disk); err != nil {
			return nil, err
		}
		out[i] = f.FileEntry
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
