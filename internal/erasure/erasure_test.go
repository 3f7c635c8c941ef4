package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func randomShards(rng *rand.Rand, k, m, size int) [][]byte {
	shards := make([][]byte, k+m)
	for i := range shards {
		shards[i] = make([]byte, size)
	}
	for i := 0; i < k; i++ {
		rng.Read(shards[i])
	}
	return shards
}

func TestNewValidation(t *testing.T) {
	cases := []struct{ k, m int }{{0, 1}, {-1, 2}, {3, -1}, {200, 57}, {257, 0}}
	for _, c := range cases {
		if _, err := New(c.k, c.m); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("New(%d, %d) err = %v, want ErrInvalidParams", c.k, c.m, err)
		}
	}
	for _, c := range []struct{ k, m int }{{1, 0}, {1, 255}, {128, 128}, {255, 1}, {256, 0}} {
		if _, err := New(c.k, c.m); err != nil {
			t.Errorf("New(%d, %d) unexpected err %v", c.k, c.m, err)
		}
	}
}

func TestSystematicEncoding(t *testing.T) {
	t.Run("vandermonde", func(t *testing.T) {
		e, err := New(4, 2)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		shards := randomShards(rng, 4, 2, 64)
		want := make([][]byte, 4)
		for i := range want {
			want[i] = append([]byte(nil), shards[i]...)
		}
		if err := e.Encode(shards); err != nil {
			t.Fatal(err)
		}
		// Systematic: data shards unchanged by encoding.
		for i := 0; i < 4; i++ {
			if !bytes.Equal(shards[i], want[i]) {
				t.Fatalf("data shard %d modified by Encode", i)
			}
		}
	})
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	// For a small code, exhaustively erase every subset of size <= m and
	// verify exact reconstruction.
	t.Run("vandermonde", func(t *testing.T) {
		const k, m, size = 4, 3, 32
		e, _ := New(k, m)
		rng := rand.New(rand.NewSource(3))
		orig := randomShards(rng, k, m, size)
		if err := e.Encode(orig); err != nil {
			t.Fatal(err)
		}
		n := k + m
		for mask := 0; mask < 1<<n; mask++ {
			erased := 0
			for i := 0; i < n; i++ {
				if mask>>i&1 == 1 {
					erased++
				}
			}
			if erased == 0 || erased > m {
				continue
			}
			shards := make([][]byte, n)
			for i := range shards {
				if mask>>i&1 == 1 {
					shards[i] = nil
				} else {
					shards[i] = append([]byte(nil), orig[i]...)
				}
			}
			if err := e.Reconstruct(shards); err != nil {
				t.Fatalf("mask %#b: %v", mask, err)
			}
			for i := range shards {
				if !bytes.Equal(shards[i], orig[i]) {
					t.Fatalf("mask %#b: shard %d wrong after reconstruct", mask, i)
				}
			}
		}
	})
}

func TestReconstructTooFewShards(t *testing.T) {
	e, _ := New(4, 2)
	rng := rand.New(rand.NewSource(4))
	shards := randomShards(rng, 4, 2, 16)
	if err := e.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[0], shards[1], shards[2] = nil, nil, nil
	if err := e.Reconstruct(shards); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("err = %v, want ErrTooFewShards", err)
	}
}

func TestReconstructData(t *testing.T) {
	e, _ := New(5, 3)
	rng := rand.New(rand.NewSource(5))
	orig := randomShards(rng, 5, 3, 48)
	if err := e.Encode(orig); err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, len(orig))
	for i := range shards {
		shards[i] = append([]byte(nil), orig[i]...)
	}
	shards[1] = nil // data
	shards[6] = nil // parity
	if err := e.ReconstructData(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[1], orig[1]) {
		t.Fatal("data shard not reconstructed")
	}
	if shards[6] != nil {
		t.Fatal("ReconstructData must not recompute parity")
	}
	// Full Reconstruct now restores parity too.
	if err := e.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[6], orig[6]) {
		t.Fatal("parity shard not reconstructed")
	}
}

func TestReconstructNoOpWhenComplete(t *testing.T) {
	e, _ := New(3, 2)
	rng := rand.New(rand.NewSource(6))
	shards := randomShards(rng, 3, 2, 8)
	if err := e.Encode(shards); err != nil {
		t.Fatal(err)
	}
	before := make([][]byte, len(shards))
	for i := range shards {
		before[i] = append([]byte(nil), shards[i]...)
	}
	if err := e.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], before[i]) {
			t.Fatal("Reconstruct modified a complete shard set")
		}
	}
}

func TestShardValidation(t *testing.T) {
	e, _ := New(3, 2)
	if err := e.Encode(make([][]byte, 4)); !errors.Is(err, errShardCount) {
		t.Errorf("wrong count: err = %v, want errShardCount", err)
	}
	shards := [][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 5), make([]byte, 4), make([]byte, 4)}
	if err := e.Encode(shards); !errors.Is(err, errShardSize) {
		t.Errorf("uneven sizes: err = %v, want errShardSize", err)
	}
	all := make([][]byte, 5)
	if err := e.Reconstruct(all); !errors.Is(err, errShardSize) {
		t.Errorf("all missing: err = %v, want errShardSize", err)
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	e, _ := New(4, 2)
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{1, 3, 4, 5, 16, 17, 1000} {
		data := make([]byte, size)
		rng.Read(data)
		shards, err := e.Split(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != 6 {
			t.Fatalf("Split returned %d shards, want 6", len(shards))
		}
		if err := e.Encode(shards); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Join(&buf, shards, size); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("size %d: Join != original", size)
		}
	}
}

func TestSplitEmpty(t *testing.T) {
	e, _ := New(4, 2)
	if _, err := e.Split(nil); !errors.Is(err, errShortData) {
		t.Fatalf("err = %v, want errShortData", err)
	}
}

func TestJoinErrors(t *testing.T) {
	e, _ := New(3, 1)
	data := []byte("hello world!")
	shards, _ := e.Split(data)
	if err := e.Encode(shards); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Join(&buf, shards[:2], len(data)); !errors.Is(err, errShardCount) {
		t.Errorf("short shard list: err = %v, want errShardCount", err)
	}
	if err := e.Join(&buf, shards, len(data)*100); !errors.Is(err, errShortData) {
		t.Errorf("oversized length: err = %v, want errShortData", err)
	}
	shards[1] = nil
	if err := e.Join(&buf, shards, len(data)); err == nil {
		t.Error("Join with missing data shard must fail")
	}
}

func TestPaperParameters(t *testing.T) {
	// The paper's configuration: k = m = 128, n = 256 blocks.
	e, err := New(128, 128)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	shards := randomShards(rng, 128, 128, 256)
	if err := e.Encode(shards); err != nil {
		t.Fatal(err)
	}
	orig := make([][]byte, len(shards))
	for i := range shards {
		orig[i] = append([]byte(nil), shards[i]...)
	}
	// Erase 128 random shards - the paper's worst tolerated case.
	for _, i := range rng.Perm(256)[:128] {
		shards[i] = nil
	}
	if err := e.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Fatalf("shard %d wrong after 128-erasure reconstruct", i)
		}
	}
}

func TestReconstructRandomErasuresProperty(t *testing.T) {
	e, _ := New(8, 5)
	prop := func(seed int64, sizeHint uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + int(sizeHint)%100
		orig := randomShards(rng, 8, 5, size)
		if err := e.Encode(orig); err != nil {
			return false
		}
		shards := make([][]byte, len(orig))
		for i := range shards {
			shards[i] = append([]byte(nil), orig[i]...)
		}
		erase := rng.Intn(6) // 0..5 erasures, all within tolerance
		for _, i := range rng.Perm(13)[:erase] {
			shards[i] = nil
		}
		if err := e.Reconstruct(shards); err != nil {
			return false
		}
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeMatrixCacheConcurrency(t *testing.T) {
	e, _ := New(10, 4)
	rng := rand.New(rand.NewSource(9))
	orig := randomShards(rng, 10, 4, 64)
	if err := e.Encode(orig); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				shards := make([][]byte, len(orig))
				for j := range shards {
					shards[j] = append([]byte(nil), orig[j]...)
				}
				for _, j := range r.Perm(14)[:4] {
					shards[j] = nil
				}
				if err := e.Reconstruct(shards); err != nil {
					done <- err
					return
				}
				for j := range shards {
					if !bytes.Equal(shards[j], orig[j]) {
						done <- errors.New("bad reconstruction under concurrency")
						return
					}
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestZeroParity(t *testing.T) {
	// m = 0 is a degenerate but legal configuration (no redundancy).
	e, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	shards := randomShards(rng, 4, 0, 16)
	if err := e.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[1] = nil
	if err := e.Reconstruct(shards); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("Reconstruct without parity, one shard lost: err = %v, want ErrTooFewShards", err)
	}
}

func TestEncodeAllocations(t *testing.T) {
	// Encode builds one slice of coefficient-row views and nothing that
	// scales with the shard: the kernel's accumulator and tables are
	// fixed-size and live on its stack.
	e, _ := New(16, 16)
	rng := rand.New(rand.NewSource(11))
	var counts []float64
	for _, size := range []int{4 << 10, 384 << 10} {
		shards := randomShards(rng, 16, 16, size)
		counts = append(counts, testing.AllocsPerRun(3, func() {
			if err := e.Encode(shards); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("Encode allocations per call at 4 KiB, 384 KiB shards = %v, want 1 at both", counts)
	}
}

// encodeByStripes computes the parity of shards' data through a Stream,
// stripes of chunk bytes per shard and a shorter last one, and returns
// the parity shards it put together.
func encodeByStripes(t testing.TB, e *Encoder, shards [][]byte, chunk int) [][]byte {
	t.Helper()
	size := len(shards[0])
	s, err := e.NewStream(min(chunk, size))
	if err != nil {
		t.Fatal(err)
	}
	parity := make([][]byte, e.m)
	for off := 0; off < size; off += chunk {
		c := min(chunk, size-off)
		for i, d := range shards[:e.k] {
			copy(s.Data()[i*c:], d[off:off+c])
		}
		chunks, err := s.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != e.k+e.m {
			t.Fatalf("Encode returned %d chunks, want %d", len(chunks), e.k+e.m)
		}
		for i, ch := range chunks {
			if len(ch) != c {
				t.Fatalf("chunk %d has %d bytes, want %d", i, len(ch), c)
			}
			if i < e.k && !bytes.Equal(ch, shards[i][off:off+c]) {
				t.Fatalf("data chunk %d at %d is not what was written to Data", i, off)
			}
			if i >= e.k {
				parity[i-e.k] = append(parity[i-e.k], ch...)
			}
		}
	}
	return parity
}

func TestStreamMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	t.Run("vandermonde", func(t *testing.T) {
		// m below and past the kernel's eight rows, k below and past its
		// four columns; stripes shorter than, equal to and longer than
		// the shard, and a ragged last one.
		for _, sh := range []struct{ k, m int }{{1, 1}, {3, 9}, {16, 8}, {17, 3}, {33, 20}, {5, 0}} {
			for _, size := range []int{1, 100, 8192 + 7} {
				e, err := New(sh.k, sh.m)
				if err != nil {
					t.Fatal(err)
				}
				want := randomShards(rng, sh.k, sh.m, size)
				if err := e.Encode(want); err != nil {
					t.Fatal(err)
				}
				for _, chunk := range []int{1, 7, 100, 4096, 8192, 1 << 20} {
					if size/chunk > 200 {
						continue
					}
					for r, p := range encodeByStripes(t, e, want, chunk) {
						if !bytes.Equal(p, want[sh.k+r]) {
							t.Fatalf("%d+%d size %d in stripes of %d: parity shard %d differs from Encode", sh.k, sh.m, size, chunk, sh.k+r)
						}
					}
				}
			}
		}
	})
}

func TestStreamMisuse(t *testing.T) {
	e, _ := New(3, 2)
	if _, err := e.NewStream(0); !errors.Is(err, errShardSize) {
		t.Fatalf("NewStream(0) err = %v, want errShardSize", err)
	}
	s, err := e.NewStream(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Data()) != 3*4 {
		t.Fatalf("Data is %d bytes, want k chunks of 4", len(s.Data()))
	}
	for _, c := range []int{0, -1, 5} {
		if _, err := s.Encode(c); !errors.Is(err, errShardSize) {
			t.Fatalf("Encode(%d) in a stream of 4-byte chunks: err = %v, want errShardSize", c, err)
		}
	}
	if chunks, err := s.Encode(4); err != nil || len(chunks) != 5 {
		t.Fatalf("Encode(4) = %d chunks, %v", len(chunks), err)
	}
}

// A Stream holds one stripe of n chunks, and a stripe encoded allocates
// nothing.
func TestStreamAllocations(t *testing.T) {
	const k, m, chunk = 128, 128, 4096
	e, _ := New(k, m)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := e.NewStream(chunk)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64((k+m+4)*chunk); got > limit {
		t.Fatalf("a stream of %d+%d chunks of %d bytes allocated %d bytes, want at most %d (one stripe)", k, m, chunk, got, limit)
	}
	for _, c := range []int{chunk, 100} {
		if n := testing.AllocsPerRun(3, func() {
			if _, err := s.Encode(c); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("Encode(%d) allocates %v times per stripe, want 0", c, n)
		}
	}
}
