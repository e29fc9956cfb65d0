package sim

import "math/rand"

// SplitMix64 advances the SplitMix64 generator state once and returns the
// next output. It is used to derive statistically independent sub-seeds
// (per-node PRNGs, adversary PRNG, shared-randomness beacon) from a single
// run seed so that an entire execution is reproducible from one integer.
func SplitMix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically mixes a run seed with a stream label. Distinct
// labels yield independent-looking streams for the same run seed.
func DeriveSeed(seed int64, label uint64) int64 {
	mixed := SplitMix64(uint64(seed) ^ SplitMix64(label))
	return int64(mixed)
}

// NewRand returns a deterministic PRNG for the given run seed and stream
// label. Every stochastic component of an execution draws from its own
// labelled stream, so adding randomness to one component never perturbs
// another.
func NewRand(seed int64, label uint64) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(seed, label)))
}

// LazyRand is a memory-sparse stand-in for a per-node
// rand.New(rand.NewSource(DeriveSeed(seed, label))): it produces the
// bit-identical Float64 stream while holding only the normalised seed
// and a draw counter (16 bytes) instead of the source's ~4.9 KiB
// lagged-Fibonacci table. At n = 2^20 nodes that retires ~5 GiB of
// resident generator state.
//
// Cost model: the first rngTap (273) draws are O(1) each and allocate
// nothing. math/rand's source seeds its 607-cell register as
//
//	vec0[i] = x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i) ^ rngCooked[i]
//
// where x(j) = s·48271^j mod (2³¹−1) is the Lehmer sequence of the
// normalised seed s, and its k-th output (k counted from 1) is
// vec0[334−k] + vec0[607−k] for as long as no feedback write has
// reached the tapped cell, which holds for k ≤ 273. Each draw therefore
// costs two register cells — six modular multiplies against a
// precomputed power table. Later draws replay the stream on a fresh
// rand.NewSource (O(seed init + draws) and one 4.9 KiB allocation); the
// crash algorithm draws once at activation and once per committee wipe
// or p-adoption, O(log n) times per node, so it never gets there.
//
// The zero value is invalid; construct with NewLazyRand. Not safe for
// concurrent use (like rand.Rand), which matches the engine contract
// that a node's state is only touched by its own Step.
type LazyRand struct {
	seed  int64 // normalised into [1, 2³¹−1) exactly as rngSource.Seed does
	draws uint32
}

// The additive lagged Fibonacci generator behind math/rand.NewSource
// and the Lehmer LCG that seeds it (see $GOROOT/src/math/rand/rng.go).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lcgMod   = 1<<31 - 1
	lcgMul   = 48271
	lcgSkip  = 21       // LCG steps before vec0[0]'s first word
	lcgZeroS = 89482311 // rngSource.Seed's replacement for a zero seed
)

// lcgPow[i] = 48271^(21+3i) mod (2³¹−1): the multiplier taking the
// normalised seed to the LCG state that opens register cell i.
var lcgPow = func() (t [rngLen]uint64) {
	x := uint64(1)
	for j := 0; j < lcgSkip; j++ {
		x = x * lcgMul % lcgMod
	}
	for i := range t {
		t[i] = x
		x = x * lcgMul % lcgMod * lcgMul % lcgMod * lcgMul % lcgMod
	}
	return t
}()

// NewLazyRand returns the lazy equivalent of NewRand(seed, label).
func NewLazyRand(seed int64, label uint64) LazyRand {
	return lazyRandFor(DeriveSeed(seed, label))
}

// lazyRandFor returns the lazy equivalent of rand.NewSource(seed),
// normalising seed the way rngSource.Seed does.
func lazyRandFor(seed int64) LazyRand {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = lcgZeroS
	}
	return LazyRand{seed: seed}
}

// seedCell returns cell i of the freshly seeded register for
// normalised seed s.
func seedCell(s uint64, i int) int64 {
	x1 := s * lcgPow[i] % lcgMod
	x2 := x1 * lcgMul % lcgMod
	x3 := x2 * lcgMul % lcgMod
	return int64(x1<<40^x2<<20^x3) ^ rngCooked[i]
}

// int63 returns the stream's next raw Int63 output.
func (r *LazyRand) int63() int64 {
	k := r.draws
	r.draws++
	if k < rngTap {
		s := uint64(r.seed)
		return (seedCell(s, rngLen-rngTap-1-int(k)) + seedCell(s, rngLen-1-int(k))) & rngMask
	}
	src := rand.NewSource(r.seed)
	for i := uint32(0); i < k; i++ {
		src.Int63()
	}
	return src.Int63()
}

// Float64 returns the next value of the underlying stream, bit-identical
// to NewRand(seed, label).Float64() at the same draw position — including
// math/rand's resample-on-1.0 loop, which is why the draw counter tracks
// raw Int63 outputs rather than returned values.
func (r *LazyRand) Float64() float64 {
	for {
		if f := float64(r.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}
