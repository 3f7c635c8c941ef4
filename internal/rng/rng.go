// Package rng provides the deterministic, splittable pseudo-random
// number generator used throughout the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: a
// run is identified by (experiment, seed) and must produce bit-identical
// metrics on every machine. math/rand's global state and Go-version
// sensitivity make it unsuitable, so this package implements
// xoshiro256++ (Blackman & Vigna) seeded through splitmix64, with
// Derive for seeding independent streams, one per simulation run or
// subsystem.
//
// The generator is NOT safe for concurrent use; derive one stream per
// goroutine instead.
package rng

import "math/bits"

// Rand is a xoshiro256++ generator. The zero value is invalid; use New.
type Rand struct {
	s State
}

// State is a generator's whole state, by value. Its methods return the
// state they advanced to instead of updating a receiver: a hot loop
// that takes a Rand's State into a local, draws from it and puts it
// back with SetState keeps the four words in registers for the length
// of the loop, where each *Rand method loads and stores them through
// memory. It is the same generator, not a copy of it: every *Rand draw
// is its State counterpart applied to r's state, so the two can be
// interleaved freely and give one sequence.
type State struct{ s0, s1, s2, s3 uint64 }

// New returns a generator seeded by expanding seed with splitmix64.
// Any seed value, including zero, is valid.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed re-initialises the generator in place from seed, exactly as
// New(seed) would. It exists for callers holding generators by value in
// large arrays (one stream per simulation slot): seeding a million
// streams must not allocate a million temporaries.
func (r *Rand) Reseed(seed uint64) {
	s := &r.s
	sm := seed
	sm, s.s0 = splitmix64(sm)
	sm, s.s1 = splitmix64(sm)
	sm, s.s2 = splitmix64(sm)
	_, s.s3 = splitmix64(sm)
	// xoshiro must not start from the all-zero state.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9E3779B97F4A7C15
	}
}

// splitmix64 advances the splitmix state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

// Derive maps a (seed, index) pair to the seed of an independent
// stream: New(Derive(seed, i)) for distinct i are statistically
// independent generators, all reproducible from the single base seed.
// Call sites that need a stream per worker or per shard use it instead
// of threading a parent generator through — the same seed-derivation
// discipline the experiment runner uses per variant, with the
// arithmetic collision risk removed by passing both values through
// splitmix64.
func Derive(seed, index uint64) uint64 {
	// Chain through splitmix64 OUTPUTS, not its state: the state
	// transition is just an additive constant, so folding the index into
	// the state would let (seed, index) pairs related by that linearity
	// collide. The finalizer output is nonlinear in its input, which
	// breaks the algebra between the seed fold and the index fold.
	_, a := splitmix64(seed)
	_, b := splitmix64(a ^ bits.RotateLeft64(index, 32) ^ 0xD1B54A32D192ED03)
	_, out := splitmix64(b + index)
	return out
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	v, s := r.s.Uint64()
	r.s = s
	return v
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method (unbiased).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	v, s := r.s.Uint64n(n)
	r.s = s
	return v
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	v, s := r.s.Float64()
	r.s = s
	return v
}

// Bool returns true with probability p. p <= 0 never, p >= 1 always;
// neither draws.
func (r *Rand) Bool(p float64) bool {
	v, s := r.s.Bool(p)
	r.s = s
	return v
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle permutes n elements in place using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// State returns the generator's current state: for checkpointing, and
// for a loop that draws from a local State (see State).
func (r *Rand) State() State { return r.s }

// SetState puts the generator in state s, as State returned it: the
// next draw from r is the one s would make next.
func (r *Rand) SetState(s State) { r.s = s }

// Uint64 is Rand.Uint64 on s: the next 64 random bits, and the state
// after them. It is xoshiro256++'s one definition in this package,
// its update written as the state it yields (s2 ^= s0; s3 ^= s1;
// s1 ^= s2; s0 ^= s3; s2 ^= s1<<17; s3 = rotl(s3, 45), solved for the
// new words) so that it costs the inliner little.
func (s State) Uint64() (uint64, State) {
	return bits.RotateLeft64(s.s0+s.s3, 23) + s.s0, State{
		s.s0 ^ s.s1 ^ s.s3,
		s.s0 ^ s.s1 ^ s.s2,
		s.s0 ^ s.s2 ^ s.s1<<17,
		bits.RotateLeft64(s.s1^s.s3, 45),
	}
}

// Uint64n is Rand.Uint64n on s. It panics if n == 0.
//
// Lemire's method: multiply a random 64-bit value by n and take the
// high word, rejecting the small biased region below -n % n, which
// lies below n: only a product below n pays for the modulo.
func (s State) Uint64n(n uint64) (uint64, State) {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	for {
		var v uint64
		v, s = s.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi, s
		}
	}
}

// Uint64nThresh is Uint64n(n) with Lemire's rejection threshold
// -n % n worked out by the caller: given that thresh, it makes the same
// draws and returns the same value. Uint64n only divides when a first
// product lands below n; a loop drawing many values below one n can pay
// for the division once, outside, and this method inlines into it. n
// must be positive.
func (s State) Uint64nThresh(n, thresh uint64) (uint64, State) {
	for {
		var v uint64
		v, s = s.Uint64()
		if hi, lo := bits.Mul64(v, n); lo >= thresh {
			return hi, s
		}
	}
}

// Float64 is Rand.Float64 on s.
func (s State) Float64() (float64, State) {
	v, s := s.Uint64()
	return float64(v>>11) / (1 << 53), s
}

// Bool is Rand.Bool on s: p <= 0 never and p >= 1 always, without a
// draw.
func (s State) Bool(p float64) (bool, State) {
	if p <= 0 {
		return false, s
	}
	if p >= 1 {
		return true, s
	}
	v, s := s.Float64()
	return v < p, s
}
