package faults

import (
	"hash/fnv"
	"math"
	"testing"
)

// decisionDigest replays Attempt, PeerLatencyMS, Transform and BackoffFor
// over a fixed (seed, machine, second, attempt) grid and hashes every
// output bit, so any change to a seeded fault stream changes the digest.
func decisionDigest(t *testing.T) uint64 {
	t.Helper()
	sc := chattyScenario()
	sc.Peers = map[string]PeerFaults{"n2": {SlowProb: 0.4, SlowMS: 80}}
	retry := DefaultRetry()
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	flag := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	seconds := []int{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 1000003, 123456789}
	for _, seed := range []int64{0, 42, -7} {
		inj, err := NewInjector(sc, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []string{"m0", "m1", "rack-07/m-1234"} {
			for _, sec := range seconds {
				for k := 0; k < 3; k++ {
					ao := inj.Attempt(m, sec, k)
					flag(ao.Dropped)
					put(math.Float64bits(ao.LatencyMS))
					put(math.Float64bits(inj.PeerLatencyMS("n2", sec, k)))
					put(math.Float64bits(retry.BackoffFor(seed, m, k+1)))
				}
				row := []float64{float64(sec), 2, 3, 4}
				tr := inj.Transform(m, sec, row)
				flag(tr.Stuck)
				put(uint64(tr.Corrupted))
				for _, v := range row {
					put(math.Float64bits(v))
				}
			}
		}
	}
	return h.Sum64()
}

// TestFaultDecisionStreamsPinned pins every seeded fault decision to the
// digest the injector produced when its streams were first recorded.
// Scenario replays, chaos-live fault runs and the -peers front door's
// node faults depend on these streams, so a refactor must keep them
// bit-identical.
func TestFaultDecisionStreamsPinned(t *testing.T) {
	const want uint64 = 0x135e84bf61502eb8
	if got := decisionDigest(t); got != want {
		t.Fatalf("fault decision digest = %#x, want %#x: a seeded fault stream moved", got, want)
	}
}

// TestFaultDecisionsAllocFree: a fault decision hashes its seed key
// piecewise and draws from a stack-held stream, so the per-attempt,
// per-call and per-row decisions allocate nothing when no fault fires.
func TestFaultDecisionsAllocFree(t *testing.T) {
	const rare = 1e-12 // every draw is taken; no fault ever fires
	inj, err := NewInjector(&Scenario{
		Defaults: MachineFaults{
			DropProb: rare, CorruptProb: rare, StuckProb: rare, StuckSeconds: 1,
			LatencyProb: rare, LatencyMS: 1,
		},
		Peers: map[string]PeerFaults{"n2": {SlowProb: rare, SlowMS: 1}},
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	retry := DefaultRetry()
	row := []float64{1, 2, 3}
	sec := 0
	for name, decide := range map[string]func(){
		"Attempt":       func() { inj.Attempt("m0", sec, 2) },
		"PeerLatencyMS": func() { inj.PeerLatencyMS("n2", sec, 7) },
		"Transform":     func() { inj.Transform("m0", sec, row) },
		"BackoffFor":    func() { retry.BackoffFor(42, "m0", 2) },
	} {
		if allocs := testing.AllocsPerRun(200, func() { sec++; decide() }); allocs != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", name, allocs)
		}
	}
}
