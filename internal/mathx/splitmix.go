package mathx

import "math"

// SplitMix64 is a tiny allocation-free PRNG with 64-bit state.
//
// math/rand's lagged-Fibonacci source seeds a 607-word table with a weak
// linear recurrence, so streams built from nearby DeriveSeed values stay
// visibly correlated for many draws — exactly the failure PR 2 found in
// fault scheduling. splitmix64's finalizer avalanches every state bit on
// every draw, so two streams whose seeds differ in a single bit are
// decorrelated from the first output. Use one SplitMix64 per independent
// stream (per machine, per channel), seeded via DeriveSeed.
type SplitMix64 struct {
	s uint64
	// Box–Muller produces normals in pairs; the spare is cached so
	// NormFloat64 consumes a deterministic number of raw draws.
	spare    float64
	hasSpare bool
}

// GoldenGamma is splitmix64's state increment (2^64/φ, rounded to odd):
// consecutive states of one stream differ by it.
const GoldenGamma uint64 = 0x9e3779b97f4a7c15

// Mix64 is one splitmix64 step: the output for state x, i.e. x advanced
// by GoldenGamma and run through the avalanching finalizer of Steele et
// al. It is the repository's only splitmix64: SplitMix64 streams, trace
// and span IDs, rendezvous scores and fault decisions all call it.
func Mix64(x uint64) uint64 {
	z := x + GoldenGamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewSplitMix returns a SplitMix64 stream for the given seed.
func NewSplitMix(seed int64) *SplitMix64 { return &SplitMix64{s: uint64(seed)} }

// Uint64 returns the next raw 64-bit draw.
func (r *SplitMix64) Uint64() uint64 {
	z := Mix64(r.s)
	r.s += GoldenGamma
	return z
}

// Float64 returns a uniform draw in [0, 1).
func (r *SplitMix64) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Intn returns a uniform draw in [0, n). It panics if n <= 0, matching
// math/rand.
func (r *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal draw (Marsaglia polar method).
func (r *SplitMix64) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			r.spare, r.hasSpare = v*f, true
			return u * f
		}
	}
}

// ExpFloat64 returns an exponential draw with mean 1.
func (r *SplitMix64) ExpFloat64() float64 {
	// 1-Float64 is in (0, 1], so the log is finite.
	return -math.Log(1 - r.Float64())
}
