package mathx

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// TestSplitMixStreamsPinned pins the first 1,000 Uint64, Float64 and
// NormFloat64 draws of three seeds. Every simulated machine, fleet burst
// schedule and meter noise channel draws from SplitMix64, so the
// committed digests depend on these streams staying bit-identical.
func TestSplitMixStreamsPinned(t *testing.T) {
	cases := []struct {
		seed                int64
		uints, floats, norm uint64
	}{
		{0, 0x5a39c46a4abd54d0, 0x4f8b76af26220fe4, 0x5978740fb84c466b},
		{42, 0xd258aead701b2865, 0xc6747e96466e2607, 0xf3b7501b7c1d5f67},
		{-6148914691236517206, 0x46b39fc31c322054, 0x62c27b2871cb6165, 0xf7b32e27bda1aba2},
	}
	digest := func(seed int64, draw func(*SplitMix64) uint64) uint64 {
		r := NewSplitMix(seed)
		h := fnv.New64a()
		var b [8]byte
		for i := 0; i < 1000; i++ {
			v := draw(r)
			for j := range b {
				b[j] = byte(v >> (8 * j))
			}
			h.Write(b[:])
		}
		return h.Sum64()
	}
	for _, c := range cases {
		got := [3]uint64{
			digest(c.seed, (*SplitMix64).Uint64),
			digest(c.seed, func(r *SplitMix64) uint64 { return math.Float64bits(r.Float64()) }),
			digest(c.seed, func(r *SplitMix64) uint64 { return math.Float64bits(r.NormFloat64()) }),
		}
		if want := [3]uint64{c.uints, c.floats, c.norm}; got != want {
			t.Errorf("seed %d: Uint64/Float64/NormFloat64 digests = %#x, want %#x", c.seed, got, want)
		}
	}
}

// TestSeedKeyMatchesDeriveSeed: DeriveSeed is FNV-64a over the parent's
// eight little-endian bytes and then the name, and a SeedKey built piece
// by piece reproduces DeriveSeed of the formatted name exactly, negative
// and extreme integers included.
func TestSeedKeyMatchesDeriveSeed(t *testing.T) {
	for _, parent := range []int64{0, 42, -7, math.MinInt64} {
		for _, c := range []struct {
			id   string
			a, b int
		}{{"m0", 0, 0}, {"rack-07/m-1234", 123456789, -3}, {"", math.MaxInt, math.MinInt}} {
			name := fmt.Sprintf("attempt:%s:%d:%d", c.id, c.a, c.b)
			h := fnv.New64a()
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(parent))
			h.Write(b[:])
			h.Write([]byte(name))
			if got, want := DeriveSeed(parent, name), int64(h.Sum64()); got != want {
				t.Fatalf("DeriveSeed(%d, %q) = %d, want FNV-64a %d", parent, name, got, want)
			}
			got := NewSeedKey(parent).Str("attempt:").Str(c.id).Str(":").Int(c.a).Str(":").Int(c.b).Seed()
			if want := DeriveSeed(parent, name); got != want {
				t.Fatalf("SeedKey for %q = %d, want DeriveSeed %d", name, got, want)
			}
		}
	}
}
