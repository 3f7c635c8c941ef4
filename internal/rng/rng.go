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
	s [4]uint64
}

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
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
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
	s := &r.s
	result := bits.RotateLeft64(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
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
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Lemire's method: multiply a random 64-bit value by n and take the
	// high word, rejecting the small biased region.
	v := r.Uint64()
	hi, lo := bits.Mul64(v, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. p <= 0 never, p >= 1 always.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
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

// State returns the current internal state, for checkpointing.
func (r *Rand) State() [4]uint64 { return r.s }
