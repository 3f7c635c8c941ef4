package backup

import (
	"archive/tar"
	"bytes"
	"crypto/x509"
	"encoding/pem"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"testing"
	"unsafe"
)

// unpackRef is UnpackFiles as it was before it sliced: every content
// read through the tar reader into a buffer of its own.
func unpackRef(archive []byte) ([]FileEntry, error) {
	r := bytes.NewReader(archive)
	tr := tar.NewReader(r)
	var out []FileEntry
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		if hdr.Size < 0 || hdr.Size > int64(r.Len()) {
			return nil, fmt.Errorf("entry %q claims %d bytes, %d remain", hdr.Name, hdr.Size, r.Len())
		}
		data := make([]byte, hdr.Size)
		if _, err := io.ReadFull(tr, data); err != nil {
			return nil, err
		}
		out = append(out, FileEntry{Path: hdr.Name, Mode: fs.FileMode(hdr.Mode).Perm(), ModTime: hdr.ModTime, Data: data})
	}
	if len(out) == 0 {
		return nil, ErrEmptyArchive
	}
	return out, nil
}

// FuzzUnpackFiles feeds UnpackFiles arbitrary bytes as a decrypted
// archive. It may refuse them, and it refuses whatever the copying
// reader refused (a header claiming more bytes than remain, above all);
// what it accepts must be the reader's entries, each content a slice
// inside the archive. The seeds are the committed corpus under
// testdata/fuzz/FuzzUnpackFiles.
func FuzzUnpackFiles(f *testing.F) {
	f.Fuzz(func(t *testing.T, archive []byte) {
		got, err := UnpackFiles(archive)
		want, refErr := unpackRef(archive)
		if err != nil {
			return
		}
		if refErr != nil {
			t.Fatalf("accepted an archive the copying reader refuses: %v", refErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d entries, the copying reader has %d", len(got), len(want))
		}
		for i, e := range got {
			w := want[i]
			if e.Path != w.Path || e.Mode != w.Mode || !e.ModTime.Equal(w.ModTime) || !bytes.Equal(e.Data, w.Data) {
				t.Fatalf("entry %d (%q) differs from the copying reader's (%q)", i, e.Path, w.Path)
			}
			if !within(archive, e.Data) {
				t.Fatalf("entry %d (%q): content is not a slice of the archive", i, e.Path)
			}
		}
	})
}

// within reports whether data's bytes are bytes of archive.
func within(archive, data []byte) bool {
	if len(data) == 0 {
		return true
	}
	off := uintptr(unsafe.Pointer(&data[0])) - uintptr(unsafe.Pointer(&archive[0]))
	return off < uintptr(len(archive)) && len(data) <= len(archive)-int(off)
}

// fuzzArchive is the archive FuzzDecodeArchive decodes: a 3+2 encode of
// a fixed plaintext under a fixed key and iv for the owner whose key
// pair is committed as testdata/fuzz_identity.pem, so that the corpus'
// manifests, which wrap that session key for that owner, stay valid.
func fuzzArchive(tb testing.TB) (id *Identity, plaintext []byte, blocks [][]byte, m *Manifest) {
	raw, err := os.ReadFile("testdata/fuzz_identity.pem")
	if err != nil {
		tb.Fatal(err)
	}
	block, _ := pem.Decode(raw)
	if block == nil {
		tb.Fatal("testdata/fuzz_identity.pem holds no PEM block")
	}
	key, err := x509.ParsePKCS1PrivateKey(block.Bytes)
	if err != nil {
		tb.Fatal(err)
	}
	id = &Identity{Private: key}
	plaintext = []byte("forty bytes of archive, give or take one")
	m, err = encodeStream(Params{DataBlocks: 3, ParityBlocks: 2}, id, testBytes(41, SessionKeySize), testBytes(42, ivSize),
		int64(len(plaintext)), func(w io.Writer) error { _, err := w.Write(plaintext); return err }, "fuzz",
		func(_ int, b []byte) error { blocks = append(blocks, bytes.Clone(b)); return nil })
	if err != nil {
		tb.Fatal(err)
	}
	return id, plaintext, blocks, m
}

// fuzzBlocks fills n block slots as shape says, byte i for slot i (zero
// past its end): the real block, nothing, the real block a byte short,
// a byte long or with a bit flipped, or so many bytes of junk.
func fuzzBlocks(real [][]byte, n int, shape []byte) [][]byte {
	blocks := make([][]byte, n)
	for i := range blocks {
		var b []byte
		if i < len(real) {
			b = bytes.Clone(real[i])
		}
		how := byte(0)
		if i < len(shape) {
			how = shape[i]
		}
		switch {
		case how == 0:
		case how == 1:
			b = nil
		case how == 2 && len(b) > 0:
			b = b[:len(b)-1]
		case how == 3:
			b = append(b, 0)
		case how == 4 && len(b) > 0:
			b[len(b)/2] ^= 0x10
		default:
			b = bytes.Repeat([]byte{how}, int(how)*5)
		}
		blocks[i] = b
	}
	return blocks
}

// FuzzDecodeArchive parses fuzzed bytes as a manifest, as a master block
// from an untrusted partner would deliver it, and decodes the real
// archive's blocks, bent as shape says, under it. The decode must fail
// or return the original plaintext, and whatever it does it must not
// allocate more than the blocks it was given and a fixed allowance: no
// number in a manifest sizes a buffer on its own word. The seeds are the
// committed corpus under testdata/fuzz/FuzzDecodeArchive.
func FuzzDecodeArchive(f *testing.F) {
	id, plaintext, real, _ := fuzzArchive(f)
	f.Fuzz(func(t *testing.T, manifest, shape []byte) {
		m, err := UnmarshalManifest(manifest)
		if err != nil {
			return
		}
		blocks := fuzzBlocks(real, m.Params.Total(), shape)
		given := uint64(len(manifest))
		for _, b := range blocks {
			given += uint64(len(b))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := DecodeArchive(m, id, blocks)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > given+1<<20 {
			t.Fatalf("allocated %d bytes over %d bytes of manifest and blocks (sealed size %d, %d+%d)",
				alloc, given, m.SealedSize, m.Params.DataBlocks, m.Params.ParityBlocks)
		}
		if err == nil && !bytes.Equal(got, plaintext) {
			t.Fatalf("decoded %q without an error, want %q", got, plaintext)
		}
	})
}
