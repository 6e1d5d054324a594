package mathx

import (
	"math/rand"
	"strconv"
)

// NewRand returns a deterministic *rand.Rand for the given seed. All
// randomness in the repository flows through explicit seeds so experiments
// are exactly reproducible.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// DeriveSeed deterministically derives a child seed from a parent seed and
// a name, so that independent subsystems (machines, workload runs, noise
// channels) get decorrelated but reproducible random streams. The seed is
// the FNV-64a hash of the parent's eight little-endian bytes followed by
// the name.
func DeriveSeed(parent int64, name string) int64 {
	return NewSeedKey(parent).Str(name).Seed()
}

// FNV-64a offset basis and prime.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// SeedKey is a DeriveSeed in progress: the FNV-64a state after the parent
// seed and the name bytes appended so far. Appending a name piece by piece
// yields exactly DeriveSeed(parent, name) without building the name, so
// per-decision seeds cost no allocation.
type SeedKey uint64

// NewSeedKey starts the key of a child of parent.
func NewSeedKey(parent int64) SeedKey {
	k := SeedKey(fnvOffset64)
	for i := 0; i < 8; i++ {
		k = (k ^ SeedKey(byte(parent>>(8*i)))) * fnvPrime64
	}
	return k
}

// Str appends s to the name.
func (k SeedKey) Str(s string) SeedKey {
	for i := 0; i < len(s); i++ {
		k = (k ^ SeedKey(s[i])) * fnvPrime64
	}
	return k
}

// Int appends v in decimal, as fmt's %d prints it.
func (k SeedKey) Int(v int) SeedKey {
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], int64(v), 10) {
		k = (k ^ SeedKey(c)) * fnvPrime64
	}
	return k
}

// Seed returns the derived seed.
func (k SeedKey) Seed() int64 { return int64(k) }

// NormSource is any generator of standard normal draws; both *rand.Rand
// and *SplitMix64 satisfy it.
type NormSource interface {
	NormFloat64() float64
}

// TruncatedNormal draws from a normal distribution with the given mean and
// standard deviation, rejecting samples more than 3σ from the mean. It is
// used for bounded physical quantities such as manufacturing variation.
func TruncatedNormal(r NormSource, mean, stddev float64) float64 {
	if stddev <= 0 {
		return mean
	}
	for i := 0; i < 64; i++ {
		v := r.NormFloat64()
		if v >= -3 && v <= 3 {
			return mean + stddev*v
		}
	}
	return mean
}
