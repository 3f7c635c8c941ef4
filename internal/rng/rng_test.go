package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := New(54321)
	same := 0
	a = New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical outputs of 1000", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced only %d distinct values of 100", len(seen))
	}
}

func TestXoshiroReferenceVectors(t *testing.T) {
	// Reference: xoshiro256++ from a known state. With state
	// {1, 2, 3, 4} the first output is rotl(1+4, 23) + 1 = 5<<23 + 1.
	r := &Rand{s: State{1, 2, 3, 4}}
	want := uint64(5<<23) + 1
	if got := r.Uint64(); got != want {
		t.Fatalf("first output from state {1,2,3,4} = %d, want %d", got, want)
	}
}

func TestSplitmix64KnownValues(t *testing.T) {
	// Reference values for splitmix64 with seed 0 (widely published):
	// first three outputs of the stream.
	want := []uint64{
		0xE220A8397B1DCDAF,
		0x6E789E6AA1B965F4,
		0x06C45D188009454F,
	}
	state := uint64(0)
	for i, w := range want {
		var out uint64
		state, out = splitmix64(state)
		if out != w {
			t.Fatalf("splitmix64 output %d = %#x, want %#x", i, out, w)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 30} {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	r := New(1)
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) must panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared test over 10 buckets; threshold is the 99.9% quantile
	// of chi2 with 9 degrees of freedom (27.88).
	r := New(42)
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Fatalf("chi2 = %.2f > 27.88; Intn looks non-uniform: %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %.4f, want ~0.5", mean)
	}
}

func TestBool(t *testing.T) {
	r := New(13)
	if r.Bool(0) {
		t.Fatal("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) must be true")
	}
	if r.Bool(-0.5) || !r.Bool(1.5) {
		t.Fatal("Bool must clamp out-of-range probabilities")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %.4f", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleViaSwap(t *testing.T) {
	r := New(23)
	s := []string{"a", "b", "c", "d", "e"}
	orig := append([]string(nil), s...)
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	counts := map[string]int{}
	for _, v := range s {
		counts[v]++
	}
	for _, v := range orig {
		if counts[v] != 1 {
			t.Fatalf("Shuffle lost element %q", v)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(31)
	r.Uint64()
	saved := r.State()
	a, b := &Rand{s: saved}, &Rand{s: saved}
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("restored generators diverged")
		}
	}
}

func TestUint64nEdge(t *testing.T) {
	r := New(37)
	if v := r.Uint64n(1); v != 0 {
		t.Fatalf("Uint64n(1) = %d", v)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Uint64n(0) must panic")
			}
		}()
		r.Uint64n(0)
	}()
}

func TestDeriveDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		for idx := uint64(0); idx < 16; idx++ {
			if Derive(seed, idx) != Derive(seed, idx) {
				t.Fatalf("Derive(%d, %d) is not deterministic", seed, idx)
			}
		}
	}
}

func TestDeriveDistinctStreams(t *testing.T) {
	// Derived seeds must be pairwise distinct across neighbouring
	// indices and seeds, and the streams they seed must diverge: a
	// collision would give two shards (or two variants) the same
	// randomness.
	seen := make(map[uint64][2]uint64)
	for _, seed := range []uint64{0, 1, 2, 42, 1 << 32} {
		for idx := uint64(0); idx < 64; idx++ {
			d := Derive(seed, idx)
			if prev, dup := seen[d]; dup {
				t.Fatalf("Derive collision: (%d,%d) and (%d,%d) -> %#x", seed, idx, prev[0], prev[1], d)
			}
			seen[d] = [2]uint64{seed, idx}
		}
	}
	a, b := New(Derive(7, 0)), New(Derive(7, 1))
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("neighbouring derived streams matched on %d of 64 draws", same)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	// Reseed must leave the generator in exactly the state New would
	// build — the v3 engine reuses one Rand value per population slot
	// across rounds and re-initialises it in place.
	r := New(5)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		r.Reseed(seed)
		fresh := New(seed)
		for i := 0; i < 32; i++ {
			if got, want := r.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("Reseed(%d) draw %d = %d, want %d", seed, i, got, want)
			}
		}
	}
}

func TestDeriveIndependentOfChild(t *testing.T) {
	// Derive must not alias a child stream seeded from New(seed)'s first
	// output: shard streams and the engine's canonical stream come from
	// the same base seed.
	child := New(New(9).Uint64())
	derived := New(Derive(9, 0))
	for i := 0; i < 16; i++ {
		if child.Uint64() == derived.Uint64() {
			t.Fatal("Derive(seed, 0) stream aliases New(New(seed).Uint64())")
		}
	}
}

// TestStateIsTheGenerator: a State taken from a Rand draws what the
// Rand would, method for method, and a Rand set to that State goes on
// from where the State stopped.
func TestStateIsTheGenerator(t *testing.T) {
	r, ref := New(99), New(99)
	for i := 0; i < 1000; i++ {
		s := r.State()
		var u uint64
		var f float64
		var b bool
		switch i % 4 {
		case 0:
			u, s = s.Uint64()
			if want := ref.Uint64(); u != want {
				t.Fatalf("draw %d: State.Uint64 %d, Rand.Uint64 %d", i, u, want)
			}
		case 1:
			u, s = s.Uint64n(uint64(i + 1))
			if want := ref.Uint64n(uint64(i + 1)); u != want {
				t.Fatalf("draw %d: State.Uint64n %d, Rand.Uint64n %d", i, u, want)
			}
		case 2:
			f, s = s.Float64()
			if want := ref.Float64(); f != want {
				t.Fatalf("draw %d: State.Float64 %v, Rand.Float64 %v", i, f, want)
			}
		case 3:
			p := float64(i%7) / 6 // 0 and 1 among them: no draw
			b, s = s.Bool(p)
			if want := ref.Bool(p); b != want {
				t.Fatalf("draw %d: State.Bool(%v) %v, Rand.Bool %v", i, p, b, want)
			}
		}
		r.SetState(s)
		if r.State() != ref.State() {
			t.Fatalf("draw %d: states diverged", i)
		}
	}
}

// TestUint64nThreshIsUint64n: with the threshold -n % n, Uint64nThresh
// makes Uint64n's draws and returns its value, at bounds where Lemire's
// rejection is rare and where it rejects nearly half of all draws.
func TestUint64nThreshIsUint64n(t *testing.T) {
	rejected := 0
	for _, n := range []uint64{1, 2, 3, 600, 25000, 1<<31 - 1, 1<<63 + 1, 1<<64 - 3} {
		r := New(n)
		for i := 0; i < 2000; i++ {
			s := r.State()
			got, next := s.Uint64nThresh(n, -n%n)
			want := r.Uint64n(n)
			if got != want || next != r.State() {
				t.Fatalf("n=%d draw %d: Uint64nThresh %d, Uint64n %d (same state after: %v)", n, i, got, want, next == r.State())
			}
			if _, once := s.Uint64(); once != next {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no draw was ever rejected: the test cannot tell the two apart")
	}
}
