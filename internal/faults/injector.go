package faults

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mathx"
	"repro/internal/obs"
)

// samplesDropped counts every per-second collection that produced no
// usable row (drops that exhausted retries, timeouts, crash windows,
// quarantined seconds).
var samplesDropped = obs.Default().Counter("chaos_samples_dropped_total", nil)

// injected counts one injected fault of the given kind
// (chaos_faults_injected_total{kind=...}).
func injected(kind string) {
	obs.Default().Counter("chaos_faults_injected_total", obs.Labels{"kind": kind}).Inc()
}

// Injector replays a Scenario deterministically. Every random decision is
// drawn from a generator derived from (seed, machine, second[, attempt]),
// so outcomes are a pure function of the scenario, the seed, and sim time
// — independent of machine interleaving and of how many queries other
// machines made. The only state is the stuck-counter latch, which is
// deterministic as long as each machine's seconds are visited in order
// (the streaming loop's natural behavior).
type Injector struct {
	sc   *Scenario
	seed int64
	down map[string][]Window // machine -> crash windows

	mu         sync.Mutex
	stuckUntil map[string]int
	stuckRow   map[string][]float64
}

// NewInjector validates the scenario and builds an injector over it.
func NewInjector(sc *Scenario, seed int64) (*Injector, error) {
	if sc == nil {
		return nil, fmt.Errorf("faults: nil scenario")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		sc:         sc,
		seed:       seed,
		down:       map[string][]Window{},
		stuckUntil: map[string]int{},
		stuckRow:   map[string][]float64{},
	}
	for _, c := range sc.Crashes {
		in.down[c.Machine] = append(in.down[c.Machine], c.window())
	}
	return in, nil
}

// Scenario returns the plan the injector replays.
func (in *Injector) Scenario() *Scenario { return in.sc }

// faultsFor resolves the fault rates for one machine: an explicit entry
// wins, otherwise the scenario defaults.
func (in *Injector) faultsFor(machine string) MachineFaults {
	if mf, ok := in.sc.Machines[machine]; ok {
		return mf
	}
	return in.sc.Defaults
}

// decisionSeed derives the seed of one decision point's stream: the
// mathx.DeriveSeed of the key "kind:id:n0[:n1...]", hashed piece by piece
// so no key string is built and a decision allocates nothing. Each
// decision draws from its own mathx.SplitMix64 stream, whose finalizer
// decorrelates the adjacent keys of consecutive attempts and seconds.
func decisionSeed(seed int64, kind, id string, n ...int) int64 {
	k := mathx.NewSeedKey(seed).Str(kind).Str(":").Str(id)
	for _, v := range n {
		k = k.Str(":").Int(v)
	}
	return k.Seed()
}

// Down reports whether the machine is inside a crash window at second t.
func (in *Injector) Down(machine string, t int) bool {
	for _, w := range in.down[machine] {
		if w.contains(t) {
			return true
		}
	}
	return false
}

// MeterAvailable reports whether the power meter is attached at second t;
// callers should skip residual monitoring and label accumulation when it
// is not. Each query inside a dropout window counts one injected fault.
func (in *Injector) MeterAvailable(t int) bool {
	for _, w := range in.sc.MeterDropouts {
		if w.contains(t) {
			injected("meter_dropout")
			return false
		}
	}
	return true
}

// AttemptOutcome is the injector's decision for one collection attempt.
type AttemptOutcome struct {
	// Dropped means the attempt returned nothing and must be retried.
	Dropped bool
	// LatencyMS is an injected latency spike charged against the
	// collector's per-sample timeout budget.
	LatencyMS float64
}

// Attempt draws the transport-level faults for attempt k of machine's
// sample at second t.
func (in *Injector) Attempt(machine string, t, attempt int) AttemptOutcome {
	mf := in.faultsFor(machine)
	r := mathx.NewSplitMix(decisionSeed(in.seed, "attempt", machine, t, attempt))
	var out AttemptOutcome
	// Fixed draw order keeps the stream identical across runs even when
	// individual probabilities are zero.
	if r.Float64() < mf.LatencyProb {
		out.LatencyMS = mf.LatencyMS
		injected("latency")
	}
	if r.Float64() < mf.DropProb {
		out.Dropped = true
		injected("drop")
	}
	return out
}

// PeerDown reports whether the peer process is inside a crash window at
// second t. A downed peer fails fast — the scatter-gather path records
// one breaker failure and moves on.
func (in *Injector) PeerDown(peer string, t int) bool {
	for _, w := range in.sc.Peers[peer].Crashes {
		if w.contains(t) {
			injected("peer_crash")
			return true
		}
	}
	return false
}

// PeerPartitioned reports whether the peer is unreachable from this node
// at second t: the process is up, but calls hang until their deadline.
func (in *Injector) PeerPartitioned(peer string, t int) bool {
	for _, w := range in.sc.Peers[peer].Partitions {
		if w.contains(t) {
			injected("peer_partition")
			return true
		}
	}
	return false
}

// PeerLatencyMS draws the injected latency for one call to peer at
// second t: deterministic per (seed, peer, second, call index), so a
// scatter-gather run replays identically from the seed.
func (in *Injector) PeerLatencyMS(peer string, t, call int) float64 {
	pf, ok := in.sc.Peers[peer]
	if !ok || pf.SlowProb == 0 {
		return 0
	}
	r := mathx.NewSplitMix(decisionSeed(in.seed, "peer", peer, t, call))
	if r.Float64() < pf.SlowProb {
		injected("peer_slow")
		return pf.SlowMS
	}
	return 0
}

// LoadMultiplier returns the offered-load multiplier at second t: the
// surge window's multiplier when t falls inside one, 1 otherwise. Each
// query inside a surge window counts one injected fault.
func (in *Injector) LoadMultiplier(t int) float64 {
	for _, l := range in.sc.Load {
		if l.window().contains(t) {
			injected("load_surge")
			return l.Multiplier
		}
	}
	return 1
}

// TransformOutcome reports the value-level faults applied to one row.
type TransformOutcome struct {
	// Stuck means the row was replaced with the frozen values of a wedged
	// counter source.
	Stuck bool
	// Corrupted is the number of counters replaced with NaN/±Inf.
	Corrupted int
}

// Transform applies value-level faults (stuck-at-last-value, NaN/Inf
// corruption) to a successfully collected row. The row is mutated in
// place, so callers must pass a private copy, never live trace storage.
func (in *Injector) Transform(machine string, t int, row []float64) TransformOutcome {
	mf := in.faultsFor(machine)
	in.mu.Lock()
	defer in.mu.Unlock()
	var out TransformOutcome
	if until, ok := in.stuckUntil[machine]; ok && t < until {
		if frozen := in.stuckRow[machine]; len(frozen) == len(row) {
			copy(row, frozen)
			out.Stuck = true
			return out
		}
	}
	r := mathx.NewSplitMix(decisionSeed(in.seed, "transform", machine, t))
	if r.Float64() < mf.StuckProb {
		// The source wedges at this second's values; the freeze shows up
		// from the next sample on.
		in.stuckUntil[machine] = t + mf.StuckSeconds
		in.stuckRow[machine] = append([]float64(nil), row...)
		injected("stuck")
	}
	if r.Float64() < mf.CorruptProb && len(row) > 0 {
		k := 1 + r.Intn(min(3, len(row)))
		for j := 0; j < k; j++ {
			idx := r.Intn(len(row))
			switch r.Intn(3) {
			case 0:
				row[idx] = math.NaN()
			case 1:
				row[idx] = math.Inf(1)
			default:
				row[idx] = math.Inf(-1)
			}
		}
		out.Corrupted = k
		injected("corrupt")
	}
	return out
}
