package erasure

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// parityGolden pins the on-disk format: the SHA-256 over all parity
// shards, in order, of goldenShards' seeded input. Blocks are
// content-addressed in manifests, so a kernel that changed a single
// parity byte would leave every existing repository unrepairable
// without any round-trip test noticing. The digests were recorded from
// the scalar MulSlice/MulAddSlice encoder of commit 2c25233 (the parent
// of the wide-table kernel) and must never be regenerated from the code
// under test.
var parityGolden = map[string]string{
	"vandermonde/4+4/1":        "a8e879d4bb04724186832a1116e6e5e93fdc6ecda06bca850ecc129dc75c9ddf",
	"vandermonde/4+4/13":       "8f951828f902418f2b89aae62db41f31d1be7a99b2b3272aa3d0de60477130f4",
	"vandermonde/4+4/4096":     "2bcd7aa9047ce4ade3f550312928a450a0e3ee0e1696bd40b43697eda9f8edba",
	"vandermonde/4+4/8197":     "07ab500d32ae45040547d856c6ccbce1df19b62b282fc2b23266889348270921",
	"vandermonde/5+3/1":        "9a57ca2d7ea933cbcedef5b4ee7d86d48e4be7da2b4fc9d0dca30279dad701eb",
	"vandermonde/5+3/13":       "b67cf9d2e3c2bf82649a095b571960792a25999344d54e2c6836ae05b2a25671",
	"vandermonde/5+3/4096":     "e208327d7ff8c486a279b5b54671b7e7069dcd092dd42ce3c51f34e187241453",
	"vandermonde/5+3/8197":     "d214319c07ecd36d0d042ab2c24fdfba0fcf14d6361317b0d787764445cec2bf",
	"vandermonde/128+128/1":    "26aec051b3969317a8379d7fffc80c30e73177601720e5a9b19e57e40184f72c",
	"vandermonde/128+128/13":   "31ca189128257fac33ea7f29218e5a53a05e6c03431b91f54654581ddc6ce3c8",
	"vandermonde/128+128/4096": "d41e784ccda22d061e09223d0728262fd40c041ac64561361d0c144e998cee79",
	"vandermonde/128+128/8197": "54dc375631808e9f085978f77902a67f5bb59eaaf8098398f419cb1bf380067c",
}

// goldenShards returns k+m shards of the given size whose data shards
// are filled from a splitmix64 stream written out here, so the golden
// input depends on no library's generator.
func goldenShards(k, m, size int) [][]byte {
	shards := make([][]byte, k+m)
	for i := range shards {
		shards[i] = make([]byte, size)
	}
	state := uint64(k)<<40 | uint64(m)<<20 | uint64(size)
	for _, s := range shards[:k] {
		for i := range s {
			state += 0x9e3779b97f4a7c15
			z := state
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			s[i] = byte((z ^ z>>31) >> 24)
		}
	}
	return shards
}

// eachGolden calls check with every golden case: its name, an encoder
// and the seeded shards, parity still zero. check returns the parity
// shards it computed, whose digest eachGolden compares with the table.
func eachGolden(t *testing.T, check func(name string, e *Encoder, shards [][]byte) [][]byte) {
	shapes := []struct{ k, m int }{{4, 4}, {5, 3}, {128, 128}}
	sizes := []int{1, 13, 4096, 8192 + 5}
	seen := 0
	t.Run("vandermonde", func(t *testing.T) {
		for _, sh := range shapes {
			e, err := New(sh.k, sh.m)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range sizes {
				name := fmt.Sprintf("vandermonde/%d+%d/%d", sh.k, sh.m, size)
				h := sha256.New()
				for _, p := range check(name, e, goldenShards(sh.k, sh.m, size)) {
					h.Write(p)
				}
				got := hex.EncodeToString(h.Sum(nil))
				want, ok := parityGolden[name]
				if !ok {
					t.Fatalf("%s: no golden digest", name)
				}
				seen++
				if got != want {
					t.Errorf("%s: parity digest %s, want %s", name, got, want)
				}
			}
		}
	})
	if seen != len(parityGolden) {
		t.Errorf("checked %d digests, table has %d", seen, len(parityGolden))
	}
}

func TestParityGolden(t *testing.T) {
	eachGolden(t, func(name string, e *Encoder, shards [][]byte) [][]byte {
		if err := e.Encode(shards); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return shards[e.k:]
	})
}

// TestParityGoldenAccumulated reproduces the same digests from parity
// put together a stripe at a time by a Stream: every shard cut into 2, 3,
// 5 and 16 stripes, into stripes of the kernel's 8 KiB chunk (what an
// archive's blocks are written in), and left as one.
func TestParityGoldenAccumulated(t *testing.T) {
	for _, stripes := range []int{2, 3, 5, 16, 0, 1} {
		eachGolden(t, func(name string, e *Encoder, shards [][]byte) [][]byte {
			chunk := 8 << 10
			if stripes > 0 {
				chunk = (len(shards[0])-1)/stripes + 1
			}
			return encodeByStripes(t, e, shards, chunk)
		})
	}
}
