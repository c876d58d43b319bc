// Package rng provides the deterministic random number generation used by
// the simulator and the workload generators.
//
// Every experiment in the paper is an average over ten runs; to make the
// reproduction exactly repeatable we seed every run explicitly and derive
// independent streams for independent stochastic processes (one per worker,
// one for the application, one for background load, ...) by hashing a parent
// seed with a stream label. Deriving streams by label, rather than drawing
// sub-seeds sequentially, keeps a worker's randomness stable when unrelated
// components are added to an experiment.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random source. It implements the same
// core generator everywhere (splitmix64 feeding xoshiro256**), so results
// are identical across platforms and Go versions — unlike math/rand's
// unexported algorithm choices.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from a 64-bit seed via splitmix64, the
// recommended initialization for xoshiro.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed re-initializes the source in place from a 64-bit seed, exactly as
// New does, so long-lived components (a reusable grid backend) can
// reseed their streams across runs without allocating.
func (s *Source) Seed(seed uint64) {
	sm := seed
	for i := range s.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

// fnv64a hash parameters (FNV-1a, 64-bit), inlined so stream derivation
// never allocates a hash.Hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvSeed feeds the parent seed's eight little-endian bytes into a fresh
// FNV-1a state — the common prefix of every stream-label hash.
func fnvSeed(seed uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(seed >> (8 * i)))
		h *= fnvPrime64
	}
	return h
}

// fnvString mixes a string into an FNV-1a state.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// StreamSeed returns the derived 64-bit seed Stream would use for the
// given (seed, label) pair, so a caller holding a live Source can reseed
// it in place instead of allocating a new one.
func StreamSeed(seed uint64, label string) uint64 {
	return fnvString(fnvSeed(seed), label)
}

// IndexedStreamSeed is StreamSeed for labels of the form
// prefix + decimal(i) — e.g. ("comp/", 3) hashes identically to the
// label "comp/3" — without formatting the label. Negative i panics.
func IndexedStreamSeed(seed uint64, prefix string, i int) uint64 {
	if i < 0 {
		panic("rng: IndexedStreamSeed with negative index")
	}
	h := fnvString(fnvSeed(seed), prefix)
	var buf [20]byte
	n := len(buf)
	for {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
		if i == 0 {
			break
		}
	}
	for ; n < len(buf); n++ {
		h ^= uint64(buf[n])
		h *= fnvPrime64
	}
	return h
}

// Stream derives an independent child source from a parent seed and a
// textual label. Identical (seed, label) pairs always yield identical
// streams.
func Stream(seed uint64, label string) *Source {
	return New(StreamSeed(seed, label))
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 pseudo-random bits (xoshiro256**).
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		hi, lo := bits.Mul64(s.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Polar returns one accepted pair of the Marsaglia polar method: u is
// the first coordinate of a point (u, v) drawn uniformly from the unit
// disc and w = sqrt(-2 ln q / q) with q = u² + v², so u·w is a standard
// normal draw. Normal is mean + stddev·u·w of one
// pair; a caller that keeps the pairs can replay a stream's normal
// draws for any mean and stddev without drawing again.
func (s *Source) Polar() (u, w float64) {
	for {
		u = 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		return u, math.Sqrt(-2 * math.Log(q) / q)
	}
}

// Normal returns a draw from Normal(mean, stddev) using the
// Marsaglia polar method.
func (s *Source) Normal(mean, stddev float64) float64 {
	if stddev <= 0 {
		return mean
	}
	u, w := s.Polar()
	return mean + stddev*u*w
}

// TruncNormal returns a Normal(mean, stddev) draw truncated below at lo
// (re-sampling; lo must be well below mean for that to terminate quickly,
// which holds for the paper's γ ≤ 0.25 regimes where lo = mean/10).
func (s *Source) TruncNormal(mean, stddev, lo float64) float64 {
	for i := 0; i < 1000; i++ {
		if x := s.Normal(mean, stddev); x >= lo {
			return x
		}
	}
	return lo
}

// Exp returns a draw from an exponential distribution with the given mean.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return -mean * math.Log(1-s.Float64())
}

// Uniform returns a uniform draw from [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}
