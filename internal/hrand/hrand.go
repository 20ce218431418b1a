// Package hrand provides counter-based deterministic random values: hash a
// tuple of integers (stream seed, frame index, channel index, ...) directly
// to uniform or normal variates.
//
// Unlike a sequential *rand.Rand, values depend only on the inputs, never on
// call order — so detector noise and pixel noise for frame f are identical
// whether the frame is visited first, last, or twice. That property makes
// sampled query plans reproducible and lets baselines and optimized plans
// observe byte-identical "video".
package hrand

import "math"

// mix is the SplitMix64 finalizer, a strong 64-bit mixing function.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// U64 hashes the given keys to a uniform 64-bit value.
func U64(keys ...int64) uint64 {
	h := uint64(0x51_7c_c1_b7_27_22_0a_95)
	for _, k := range keys {
		h = mix(h ^ uint64(k))
	}
	return h
}

// Float64 hashes the keys to a uniform float64 in [0, 1).
func Float64(keys ...int64) float64 {
	return float64(U64(keys...)>>11) / (1 << 53)
}

// Stream is a sequential counter-based PRNG: a fixed key tuple plus an
// incrementing draw counter. Two streams with different keys are
// independent, and a stream's draw sequence depends only on its keys —
// never on any other stream's activity. This is what lets sharded query
// plans give each shard its own reproducible randomness derived from
// (seed, shard index): the values shard 3 draws are identical whether it
// runs first, last, or concurrently with every other shard.
//
// A Stream is not safe for concurrent use; give each goroutine its own.
type Stream struct {
	prefix uint64 // U64 fold of the key tuple
	ctr    int64
}

// NewStream returns a Stream keyed by the given tuple (typically a salt,
// a seed, and a shard index). The stream's n-th draw equals
// U64(keys..., n), so draws are reproducible from the keys alone.
func NewStream(keys ...int64) *Stream {
	return &Stream{prefix: U64(keys...)}
}

// Uint64 returns the next uniform 64-bit draw.
func (s *Stream) Uint64() uint64 {
	h := mix(s.prefix ^ uint64(s.ctr))
	s.ctr++
	return h
}

// Intn returns the next uniform draw in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("hrand: Intn with non-positive n")
	}
	// Modulo reduction: the bias is < n/2^64, far below anything the
	// statistical machinery downstream could observe.
	return int(s.Uint64() % uint64(n))
}

// Float64 returns the next uniform draw in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Norm hashes the keys to a standard normal variate via the Box–Muller
// transform over two derived uniforms.
func Norm(keys ...int64) float64 {
	h := U64(keys...)
	u1 := float64(h>>11) / (1 << 53)
	h2 := mix(h ^ 0xda3e39cb94b95bdb)
	u2 := float64(h2>>11) / (1 << 53)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
