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
// Every stage exists once, as a stream: a tar writer, a writer that
// encrypts what reaches it into stripes, tags each and cuts it into the
// chunks of the archive's blocks (stripeWriter over erasure.Stream), and
// on the way back a reader that puts a stripe together from any k
// blocks, checks its tag and decrypts it (stripeReader) under a tar
// reader. EncodeDir chains the first three from the files on disk to a
// put callback, DecodeDir the last two from ranged reads of stored
// blocks to files, so that a backup and a restore each hold one stripe,
// never the archive; PackFiles, EncodeArchive, DecodeArchive and
// UnpackFiles run the same stages over bytes already in memory.
//
// Nothing unauthenticated becomes visible: no plaintext byte exists
// before the tag of its stripe has verified, and DecodeDir writes into a
// staging directory, so that no file appears under its name before the
// last stripe, the stripe count and the hash of the whole sealed stream
// have checked out.
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

	"p2pbackup/internal/storage"
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

// safeJoin returns where the entry named path (slash-separated, relative)
// lies under root, or ErrUnsafePath if that is not under root.
func safeJoin(root, path string) (string, error) {
	clean := filepath.Clean(filepath.FromSlash(path))
	up := ".." + string(filepath.Separator)
	if clean == ".." || strings.HasPrefix(clean, up) || filepath.IsAbs(clean) {
		return "", fmt.Errorf("%w: %q", ErrUnsafePath, path)
	}
	return filepath.Join(root, clean), nil
}

// writeFile creates the file at path, directories included, with what an
// entry records of it: content, mode and modification time. buf is the
// buffer to copy through, if content needs one.
func writeFile(path string, mode fs.FileMode, modTime time.Time, content io.Reader, buf []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if mode = mode.Perm(); mode == 0 {
		mode = 0o644
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	// Behind a plain Writer, or the file's ReadFrom would copy through a
	// buffer of its own making.
	if _, err := io.CopyBuffer(struct{ io.Writer }{f}, content, buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Chtimes(path, time.Time{}, modTime) // a zero time leaves that time alone
}

// WriteDir materialises entries under root, refusing paths that escape
// it.
func WriteDir(root string, entries []FileEntry) error {
	for _, e := range entries {
		dst, err := safeJoin(root, e.Path)
		if err != nil {
			return err
		}
		if err := writeFile(dst, e.Mode, e.ModTime, bytes.NewReader(e.Data), nil); err != nil {
			return err
		}
	}
	return nil
}

// unpackTo is UnpackFiles and WriteDir for a tar stream that is not held:
// every regular file of it is written under root as it passes. It returns
// the number of files.
func unpackTo(r io.Reader, root string) (files int, err error) {
	tr := tar.NewReader(r)
	buf := make([]byte, 128<<10)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return files, fmt.Errorf("backup: tar read: %w", err)
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		dst, err := safeJoin(root, hdr.Name)
		if err != nil {
			return files, err
		}
		if err := writeFile(dst, fs.FileMode(hdr.Mode), hdr.ModTime, tr, buf); err != nil {
			return files, fmt.Errorf("backup: restore %q: %w", hdr.Name, err)
		}
		files++
	}
	if files == 0 {
		return 0, ErrEmptyArchive
	}
	return files, nil
}

// publish moves everything under from to the same place under to:
// directories that exist there are merged, files replace what is there.
func publish(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		src, dst := filepath.Join(from, e.Name()), filepath.Join(to, e.Name())
		if info, err := os.Stat(dst); e.IsDir() && err == nil && info.IsDir() {
			if err := publish(src, dst); err != nil {
				return err
			}
			continue
		}
		if err := os.Rename(src, dst); err != nil {
			return err
		}
	}
	return nil
}

// DecodeDir restores the archive's files under dst, creating it if need
// be, without ever holding the archive. fetch is asked for the archive's
// blocks in index order, which is data blocks first, until k were had:
// for block i it returns a reader of the block's bytes, or nil when the
// block cannot be had intact, in which case the next index is tried. The
// k blocks are then read a stripe at a time, and what DecodeDir holds is
// one stripe (a version 1 archive, which has no stripes, is decoded in
// memory). It returns the number of files restored and of blocks read.
//
// The files are written into a staging directory inside dst and moved to
// their names only when the whole archive has proved authentic. After
// any error, be it too few blocks, a block that changed under the read
// or a tree that cannot be written, the staging directory is gone and
// dst is as it was found.
func DecodeDir(m *Manifest, owner *Identity, dst string, fetch func(i int, id storage.BlockID) io.ReaderAt) (files, blocks int, err error) {
	if err := m.Validate(); err != nil {
		return 0, 0, err
	}
	readers := make([]io.ReaderAt, len(m.BlockIDs))
	blocks = m.pick(m.Params.DataBlocks, func(i int, id storage.BlockID) bool {
		readers[i] = fetch(i, id)
		return readers[i] != nil
	})
	if blocks < m.Params.DataBlocks {
		return 0, blocks, fmt.Errorf("%w: %d of %d, need %d", ErrTooFewBlocks, blocks, m.Params.Total(), m.Params.DataBlocks)
	}
	var plaintext io.Reader
	if m.Version < 2 {
		plaintext, err = readV1(m, owner, readers)
	} else {
		plaintext, err = newStripeReader(m, owner, readers)
	}
	if err != nil {
		return 0, blocks, err
	}

	_, statErr := os.Stat(dst)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, blocks, err
	}
	staging, err := os.MkdirTemp(dst, ".p2pbackup-restore-*")
	if err != nil {
		return 0, blocks, err
	}
	defer func() {
		os.RemoveAll(staging)
		if err != nil && errors.Is(statErr, fs.ErrNotExist) {
			os.Remove(dst) // made here, and still empty
		}
	}()
	if files, err = unpackTo(plaintext, staging); err != nil {
		return 0, blocks, err
	}
	// Whatever follows the tar stream's end, up to the reader's own end,
	// where it compares the stream that passed with the manifest.
	if _, err = io.Copy(io.Discard, plaintext); err != nil {
		return 0, blocks, err
	}
	if err = publish(staging, dst); err != nil {
		return 0, blocks, err
	}
	return files, blocks, nil
}

// readV1 decodes a version 1 archive, whose blocks must be read whole,
// and returns a reader of its plaintext.
func readV1(m *Manifest, owner *Identity, readers []io.ReaderAt) (io.Reader, error) {
	size, err := m.blockSize()
	if err != nil {
		return nil, err
	}
	blocks := make([][]byte, len(readers))
	for i, r := range readers {
		if r == nil {
			continue
		}
		// The size is the manifest's word: read what is there, up to one
		// byte more than that, and let DecodeArchive compare.
		if blocks[i], err = io.ReadAll(io.NewSectionReader(r, 0, int64(size)+1)); err != nil {
			return nil, fmt.Errorf("backup: block %d: %w", i, err)
		}
	}
	plaintext, err := DecodeArchive(m, owner, blocks)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(plaintext), nil
}
