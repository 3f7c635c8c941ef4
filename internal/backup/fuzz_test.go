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
	"reflect"
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

// fuzzArchives are the archives FuzzDecodeArchive decodes, both 3+2 and
// under one fixed session key for the owner whose key pair is committed
// as testdata/fuzz_identity.pem, so that the corpus' manifests, which wrap
// that session key for that owner, stay valid. v1 is a version 1 archive
// of forty bytes, encoded by the oracle into the blocks the corpus'
// version 1 manifests name; v2 is a striped archive of three stripes and
// a little; replay holds the blocks of a second striped archive of the
// same owner, under the same key even, for stripes to be replayed from.
type fuzzArchives struct {
	id     *Identity
	v1, v2 fuzzArchive
	replay [][]byte
}

type fuzzArchive struct {
	plaintext []byte
	blocks    [][]byte
	m         *Manifest
}

func loadFuzzArchives(tb testing.TB) *fuzzArchives {
	raw, err := os.ReadFile("testdata/fuzz_identity.pem")
	if err != nil {
		tb.Fatal(err)
	}
	block, _ := pem.Decode(raw)
	if block == nil {
		tb.Fatal("testdata/fuzz_identity.pem holds no PEM block")
	}
	private, err := x509.ParsePKCS1PrivateKey(block.Bytes)
	if err != nil {
		tb.Fatal(err)
	}
	f := &fuzzArchives{id: &Identity{Private: private}}
	params := Params{DataBlocks: 3, ParityBlocks: 2}
	key := testBytes(41, SessionKeySize)
	wrapped, err := WrapKey(f.id.Public(), key)
	if err != nil {
		tb.Fatal(err)
	}

	f.v1.plaintext = []byte("forty bytes of archive, give or take one")
	f.v1.blocks, f.v1.m = encodeRef(tb, params, key, testBytes(42, ivSize), f.v1.plaintext)
	f.v1.m.WrappedKey = wrapped

	striped := func(iv []byte) fuzzArchive {
		a := fuzzArchive{plaintext: testBytes(uint64(iv[0]), 3*3*stripeChunk+1234), blocks: make([][]byte, params.Total())}
		a.m, err = encodeStream(params, known(f.id), key, iv, int64(len(a.plaintext)),
			func(w io.Writer) error { _, err := w.Write(a.plaintext); return err }, "fuzz",
			func(i int, chunk []byte) error { a.blocks[i] = append(a.blocks[i], chunk...); return nil })
		if err != nil {
			tb.Fatal(err)
		}
		return a
	}
	f.v2 = striped(testBytes(43, ivSize))
	f.replay = striped(testBytes(44, ivSize)).blocks
	return f
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

// fuzzStripes moves the stripes of a striped archive's blocks about as
// the three bytes of op say, the same way in every block, as someone
// would who holds the blocks and not the key: op[0] picks what is done
// to stripes op[1] and op[2] (cut the last one off, swap the two, take
// the first from the archive replay, or repeat it after the last).
func fuzzStripes(real, replay [][]byte, op []byte) [][]byte {
	if len(op) < 3 || len(real[0]) <= stripeChunk {
		return real
	}
	stripes := (len(real[0])-1)/stripeChunk + 1
	a, b := int(op[1])%stripes, int(op[2])%stripes
	out := make([][]byte, len(real))
	for i, block := range real {
		var chunks [][]byte
		for off := 0; off < len(block); off += stripeChunk {
			chunks = append(chunks, block[off:min(off+stripeChunk, len(block))])
		}
		switch op[0] {
		case 1:
			chunks = chunks[:stripes-1]
		case 2:
			chunks[a], chunks[b] = chunks[b], chunks[a]
		case 3:
			chunks[a] = replay[i][a*stripeChunk : min((a+1)*stripeChunk, len(replay[i]))]
		case 4:
			chunks = append(chunks, chunks[a])
		}
		for _, c := range chunks {
			out[i] = append(out[i], c...)
		}
	}
	return out
}

// FuzzDecodeArchive parses fuzzed bytes as a manifest, as a master block
// from an untrusted partner would deliver it, and decodes under it the
// blocks of the real archive of the manifest's version, bent as shape
// says: one byte per block slot (fuzzBlocks), then three for the stripes
// of a striped archive (fuzzStripes). The decode must fail or return the
// original plaintext, and whatever it does it must not allocate more than
// the blocks it was given and a fixed allowance, which is far more than a
// stripe at 3+2: no number in a manifest sizes a buffer on its own word.
// The seeds are the committed corpus under testdata/fuzz/FuzzDecodeArchive;
// those named v2-* carry manifests forged to match the moved stripes
// (block ids, sealed size and stripe count all agree with the blocks), so
// that nothing but the stripe tags stands between them and a plaintext.
func FuzzDecodeArchive(f *testing.F) {
	real := loadFuzzArchives(f)
	f.Fuzz(func(t *testing.T, manifest, shape []byte) {
		m, err := UnmarshalManifest(manifest)
		if err != nil {
			return
		}
		n := m.Params.Total()
		from := real.v1
		if m.Version == 2 {
			from = real.v2
			from.blocks = fuzzStripes(from.blocks, real.replay, shape[min(n, len(shape)):])
		}
		blocks := fuzzBlocks(from.blocks, n, shape)
		given := uint64(len(manifest))
		for _, b := range blocks {
			given += uint64(len(b))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := DecodeArchive(m, real.id, blocks)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > given+1<<20 {
			t.Fatalf("allocated %d bytes over %d bytes of manifest and blocks (version %d, sealed size %d, %d+%d)",
				alloc, given, m.Version, m.SealedSize, m.Params.DataBlocks, m.Params.ParityBlocks)
		}
		if err == nil && !bytes.Equal(got, from.plaintext) {
			t.Fatalf("decoded %d bytes without an error that are not the version %d archive's plaintext", len(got), m.Version)
		}
	})
}

// FuzzMasterBlock parses fuzzed bytes as master.json, the one file a
// restore trusts before it has read a block. UnmarshalMasterBlock must
// not panic; a block it accepts must hold only manifests that pass
// Validate, and must come back unchanged through MarshalMasterBlock and
// UnmarshalMasterBlock. The seeds are the committed corpus under
// testdata/fuzz/FuzzMasterBlock: the master blocks of cmd/p2pbackup's
// two repository fixtures, a null manifest, versions 0 and 2, and {}.
func FuzzMasterBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		mb, err := UnmarshalMasterBlock(data)
		if err != nil {
			return
		}
		for i, m := range mb.Manifests {
			if err := m.Validate(); err != nil {
				t.Fatalf("accepted manifest %d fails Validate: %v", i, err)
			}
		}
		raw, err := MarshalMasterBlock(mb)
		if err != nil {
			t.Fatalf("an accepted block does not marshal: %v", err)
		}
		again, err := UnmarshalMasterBlock(raw)
		if err != nil {
			t.Fatalf("a marshalled block does not parse: %v\n%s", err, raw)
		}
		if len(mb.Partners) == 0 {
			mb.Partners = nil // an empty hint map is written as none
		}
		if !reflect.DeepEqual(again, mb) {
			t.Fatalf("the round trip changed the block:\n%s", raw)
		}
	})
}
