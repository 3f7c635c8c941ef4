package erasure

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"p2pbackup/internal/gf256"
)

// product is a random product of m rows over k shards of size bytes.
func product(rng *rand.Rand, m, k, size int) (coef, in [][]byte) {
	coef = make([][]byte, m)
	for r := range coef {
		coef[r] = make([]byte, k)
		rng.Read(coef[r])
	}
	in = make([][]byte, k)
	for c := range in {
		in[c] = make([]byte, size)
		rng.Read(in[c])
	}
	return coef, in
}

func shardsOf(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
	}
	return out
}

// The product split between the caller and the helper writes every row
// exactly as one gf256.MulRows call does, whether or not it is split,
// for row counts below, at and past the split's multiples of eight.
func TestSplitProductMatchesMulRows(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, m := range []int{1, 7, 9, 17, 127, 128} {
		for _, size := range []int{1, 13, 100, 4096, 8191, 8192} {
			coef, in := product(rng, m, 12, size)
			want, got := shardsOf(m, size), shardsOf(m, size)
			gf256.MulRows(coef, in, want)
			mulRows(coef, in, got)
			for r := range want {
				if !bytes.Equal(got[r], want[r]) {
					t.Fatalf("m=%d, %d-byte shards: row %d differs from one MulRows call (split at %d)", m, size, r, splitRows(m))
				}
			}
		}
	}
}

// The halves fall on the kernel's groups of eight rows, and a product
// under 16 rows is not split.
func TestSplitRows(t *testing.T) {
	for n, want := range map[int]int{1: 0, 15: 0, 16: 8, 17: 16, 24: 16, 31: 16, 32: 16, 33: 24, 127: 64, 128: 64, 255: 128} {
		if got := splitRows(n); got != want {
			t.Errorf("splitRows(%d) = %d, want %d", n, got, want)
		}
	}
}

// Callers that meet at the helper each get their own product: one hands
// it its second half, the others compute every row themselves.
func TestSplitProductConcurrentCallers(t *testing.T) {
	const callers, rounds = 4, 20
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := range rounds {
				coef, in := product(rng, 32+g, 16, 1000+i)
				want, got := shardsOf(len(coef), 1000+i), shardsOf(len(coef), 1000+i)
				gf256.MulRows(coef, in, want)
				mulRows(coef, in, got)
				for r := range want {
					if !bytes.Equal(got[r], want[r]) {
						t.Errorf("caller %d, round %d: row %d differs", g, i, r)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
