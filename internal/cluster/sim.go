package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Event kinds. Actuations sort before machine events at the same second,
// so a frequency cap installed "at t" constrains every machine step of
// second t — the same order a real control loop observes.
const (
	evActuation = iota
	evMachine
)

// event is one scheduled state change: a machine's burst/step event
// (kind evMachine, idx = machine index) or a queued control actuation
// (kind evActuation, idx = slot in the actuations slice). Each machine
// has at most one pending event and each actuation slot fires once, so
// (at, kind, idx) is unique and the heap order is total and
// deterministic.
type event struct {
	at   int64
	idx  int32
	kind uint8
}

func (e event) less(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.kind != o.kind {
		return e.kind < o.kind
	}
	return e.idx < o.idx
}

// ClusterSimulator advances a Topology through simulated time
// event-drivenly: machines schedule their next state change (burst
// start, per-second step while active, burst end) on a shared clock, and
// nothing at all happens for idle machines. The exported primitives —
// HasPendingEvents, PeekNextEventTime, ProcessNextEvent — expose the
// loop one event at a time so tests can interleave invariant checks, and
// RunUntil drives them in bulk.
type ClusterSimulator struct {
	topo *Topology

	heap  []event
	clock int64

	events int64 // processed events
	steps  int64 // machine-seconds actually simulated
	active int   // machines currently inside a burst

	// actuations holds queued control callbacks; an evActuation event's
	// idx addresses this slice, and slots are nil'd once fired.
	actuations []func(now int64)

	// servedCPU accumulates served CPU core-seconds across every machine
	// step — the throughput a capping run is judged against.
	servedCPU float64

	digest hash.Hash
	dbuf   [20]byte
}

// NewSimulator readies a built topology for simulation from t=0: every
// non-idle machine's first burst is scheduled, idle-profile machines are
// parked at their idle watts and never wake.
func NewSimulator(topo *Topology) *ClusterSimulator {
	cs := &ClusterSimulator{
		topo:   topo,
		digest: sha256.New(),
	}
	for _, mn := range topo.Machines {
		cs.scheduleNextBurst(mn, 0)
	}
	return cs
}

// Topology returns the simulated topology.
func (cs *ClusterSimulator) Topology() *Topology { return cs.topo }

// Clock returns the current simulated second.
func (cs *ClusterSimulator) Clock() int64 { return cs.clock }

// Events returns the number of processed events.
func (cs *ClusterSimulator) Events() int64 { return cs.events }

// Steps returns the number of machine-seconds actually simulated — the
// work a per-second lockstep loop would have multiplied by the fleet's
// idle fraction.
func (cs *ClusterSimulator) Steps() int64 { return cs.steps }

// ActiveMachines returns how many machines are currently inside a burst.
func (cs *ClusterSimulator) ActiveMachines() int { return cs.active }

// ServedCPU returns the cumulative served CPU core-seconds across every
// machine step so far. Throughput retention under a cap is this value
// relative to an uncapped twin run.
func (cs *ClusterSimulator) ServedCPU() float64 { return cs.servedCPU }

// Digest returns the hex SHA-256 over every (time, machine, wattsBits)
// update processed so far. Two runs of the same topology and duration
// must produce identical digests; the cluster benchmark asserts it.
func (cs *ClusterSimulator) Digest() string {
	return hex.EncodeToString(cs.digest.Sum(nil))
}

// HasPendingEvents reports whether any machine has a scheduled state
// change. A fleet of only idle-profile machines has none.
func (cs *ClusterSimulator) HasPendingEvents() bool { return len(cs.heap) > 0 }

// PeekNextEventTime returns the simulated second of the earliest pending
// event. It panics if no events are pending.
func (cs *ClusterSimulator) PeekNextEventTime() int64 {
	if len(cs.heap) == 0 {
		panic("cluster: PeekNextEventTime on empty event heap")
	}
	return cs.heap[0].at
}

// ProcessNextEvent pops and applies the earliest event: it advances the
// clock to the event's time, steps or parks the event's machine, dirties
// that machine's path to the root, and schedules the machine's next
// event. It reports false when no events remain.
func (cs *ClusterSimulator) ProcessNextEvent() bool {
	if len(cs.heap) == 0 {
		return false
	}
	ev := cs.pop()
	if ev.at > cs.clock {
		cs.clock = ev.at
	}
	cs.events++

	if ev.kind == evActuation {
		fn := cs.actuations[ev.idx]
		cs.actuations[ev.idx] = nil
		if fn != nil {
			fn(ev.at)
		}
		return true
	}

	mn := cs.topo.Machines[ev.idx]

	if !mn.active {
		// Wake: the pending burst begins now, with its per-second demand
		// computed once for the whole burst.
		mn.active = true
		mn.pendingWake = false
		mn.burstEnd = ev.at + mn.pendingDur
		mn.demand = mn.Profile.Demand(mn.Machine.Spec, mn.pendingLevel)
		cs.active++
	} else if ev.at >= mn.burstEnd {
		// Burst over: park the machine at idle watts and schedule its
		// next wake. No machine step happens at this boundary.
		mn.active = false
		cs.active--
		mn.trueWatts = mn.Machine.IdleWatts()
		cs.record(mn, ev.at, mn.Machine.IdleWatts())
		cs.scheduleNextBurst(mn, ev.at)
		return true
	}

	// Step one simulated second of the burst's demand.
	var (
		served sim.Served
		p      sim.PowerSample
	)
	if mn.capture {
		served, mn.lastSig, p = mn.Machine.Step(mn.demand)
	} else {
		served, p = mn.Machine.StepPower(mn.demand)
	}
	cs.steps++
	cs.servedCPU += served.CPU
	mn.trueWatts = p.TrueWatts
	cs.record(mn, ev.at, p.MeterWatts)
	cs.push(event{at: ev.at + 1, idx: ev.idx, kind: evMachine})
	return true
}

// RunUntil processes every event scheduled at or before end, then
// advances the clock to end. Idle stretches cost nothing: the clock
// jumps straight over them.
func (cs *ClusterSimulator) RunUntil(end int64) {
	for cs.HasPendingEvents() && cs.PeekNextEventTime() <= end {
		cs.ProcessNextEvent()
	}
	if end > cs.clock {
		cs.clock = end
	}
}

// checkIndex validates a caller-supplied machine index. Out-of-range
// indices used to panic deep inside the topology slice; they now count a
// metric and surface as an error the driver can handle.
func (cs *ClusterSimulator) checkIndex(idx int, op string) error {
	if idx < 0 || idx >= len(cs.topo.Machines) {
		obs.Default().Counter("chaos_cluster_bad_machine_index_total", obs.Labels{"op": op}).Inc()
		return fmt.Errorf("cluster: %s: machine index %d out of range [0, %d)", op, idx, len(cs.topo.Machines))
	}
	return nil
}

// SetCapture switches a machine to the full-signals step path so
// SampleSignals can export its counter state. Enable before the machine's
// first event.
func (cs *ClusterSimulator) SetCapture(idx int) error {
	if err := cs.checkIndex(idx, "SetCapture"); err != nil {
		return err
	}
	cs.topo.Machines[idx].capture = true
	return nil
}

// SampleSignals returns the machine's most recent OS counter signals and
// current watts. An idle machine has no recent step, so one out-of-band
// idle second is simulated for it (and recorded in the hierarchy, keeping
// the aggregate faithful to every step taken).
func (cs *ClusterSimulator) SampleSignals(idx int) (map[string]float64, float64, error) {
	if err := cs.checkIndex(idx, "SampleSignals"); err != nil {
		return nil, 0, err
	}
	mn := cs.topo.Machines[idx]
	if mn.active && mn.lastSig != nil {
		return mn.lastSig, mn.watts, nil
	}
	_, sig, p := mn.Machine.Step(sim.Demand{})
	mn.lastSig = sig
	mn.trueWatts = p.TrueWatts
	cs.record(mn, cs.clock, p.MeterWatts)
	return sig, mn.watts, nil
}

// Control-plane digest record kinds. Control records share the machine
// digest stream but set bit 31 of the index word (real machine indices
// never do), so a capped run's digest covers both what the fleet did and
// what the controller did to it.
const (
	CtlTick    = 1 // one controller tick: payload = sequence, value = sensed watts
	CtlFreqCap = 2 // payload = machine index, value = new cap index
	CtlMigrate = 3 // payload = source machine index, value = destination index
)

// RecordControl folds a control-plane action into the reproducibility
// digest: (kind, payload, value) with bit 31 set on the index word.
func (cs *ClusterSimulator) RecordControl(kind uint8, payload uint32, val float64) {
	tag := 1<<31 | uint32(kind&0x7)<<28 | payload&0x0fff_ffff
	binary.LittleEndian.PutUint64(cs.dbuf[0:8], uint64(cs.clock))
	binary.LittleEndian.PutUint32(cs.dbuf[8:12], tag)
	binary.LittleEndian.PutUint64(cs.dbuf[12:20], math.Float64bits(val))
	cs.digest.Write(cs.dbuf[:])
}

// ScheduleActuation queues fn to run at simulated second `at` (clamped to
// the current clock), ordered before every machine step of that second.
// The control loop lives on this: each tick senses, decides, actuates,
// and reschedules itself one interval later.
func (cs *ClusterSimulator) ScheduleActuation(at int64, fn func(now int64)) {
	if at < cs.clock {
		at = cs.clock
	}
	cs.actuations = append(cs.actuations, fn)
	cs.push(event{at: at, idx: int32(len(cs.actuations) - 1), kind: evActuation})
}

// SetMachineFreqCap clamps a machine's governor to P-state capIdx and
// folds the actuation into the digest. Cap = top P-state is the
// documented no-op: the governor behaves bit-identically to uncapped.
func (cs *ClusterSimulator) SetMachineFreqCap(idx, capIdx int) error {
	if err := cs.checkIndex(idx, "SetMachineFreqCap"); err != nil {
		return err
	}
	if err := cs.topo.Machines[idx].Machine.SetFreqCap(capIdx); err != nil {
		return err
	}
	cs.RecordControl(CtlFreqCap, uint32(idx), float64(capIdx))
	return nil
}

// MigrateProfile swaps the burst profiles of two machines — the sim's
// model of live-migrating a workload. Each machine keeps its private
// burst stream (determinism); the swap steers every burst scheduled
// after it. When the source is mid-burst and the destination is parked
// with no pending wake, the in-flight burst moves too: it ends on the
// source at the source's next event and its unserved remainder wakes on
// the destination one second later — power leaves the source subtree
// within a second instead of whenever the burst would have drained,
// which is what makes migration a usable actuator for a cap that sits
// near the idle floor. A machine left with no pending event gets its
// next burst scheduled from the new profile immediately.
func (cs *ClusterSimulator) MigrateProfile(from, to int) error {
	if err := cs.checkIndex(from, "MigrateProfile"); err != nil {
		return err
	}
	if err := cs.checkIndex(to, "MigrateProfile"); err != nil {
		return err
	}
	if from == to {
		return fmt.Errorf("cluster: MigrateProfile: source and destination are both machine %d", from)
	}
	a, b := cs.topo.Machines[from], cs.topo.Machines[to]
	a.Profile, b.Profile = b.Profile, a.Profile
	if a.active && !b.active && !b.pendingWake {
		if remaining := a.burstEnd - cs.clock; remaining > 0 {
			// Hand the burst's remainder to the destination. pendingLevel
			// still holds the in-flight burst's level; the destination's
			// demand is recomputed from its own spec at wake.
			b.pendingDur = remaining
			b.pendingLevel = a.pendingLevel
			b.pendingWake = true
			cs.push(event{at: cs.clock + 1, idx: int32(b.Index), kind: evMachine})
		}
		// The source's next event now takes the burst-end path.
		a.burstEnd = cs.clock
	}
	for _, mn := range []*MachineNode{a, b} {
		if !mn.active && !mn.pendingWake {
			cs.scheduleNextBurst(mn, cs.clock)
		}
	}
	cs.RecordControl(CtlMigrate, uint32(from), float64(to))
	return nil
}

// record writes a machine's new watts into the hierarchy: the leaf value,
// the dirty path to the root, and the reproducibility digest.
func (cs *ClusterSimulator) record(mn *MachineNode, at int64, watts float64) {
	mn.watts = watts
	mn.parent.markDirty()
	binary.LittleEndian.PutUint64(cs.dbuf[0:8], uint64(at))
	binary.LittleEndian.PutUint32(cs.dbuf[8:12], uint32(mn.Index))
	binary.LittleEndian.PutUint64(cs.dbuf[12:20], math.Float64bits(watts))
	cs.digest.Write(cs.dbuf[:])
}

func (cs *ClusterSimulator) scheduleNextBurst(mn *MachineNode, now int64) {
	start, dur, level, ok := mn.Profile.NextBurst(mn.rng, now)
	if !ok {
		return // idle profile: parked at idle watts forever
	}
	mn.pendingDur = dur
	mn.pendingLevel = level
	mn.pendingWake = true
	cs.push(event{at: start, idx: int32(mn.Index), kind: evMachine})
}

// push/pop implement a plain binary min-heap over the event slice;
// container/heap's interface would cost an allocation per operation.
func (cs *ClusterSimulator) push(e event) {
	cs.heap = append(cs.heap, e)
	i := len(cs.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !cs.heap[i].less(cs.heap[parent]) {
			break
		}
		cs.heap[i], cs.heap[parent] = cs.heap[parent], cs.heap[i]
		i = parent
	}
}

func (cs *ClusterSimulator) pop() event {
	top := cs.heap[0]
	n := len(cs.heap) - 1
	cs.heap[0] = cs.heap[n]
	cs.heap = cs.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && cs.heap[l].less(cs.heap[min]) {
			min = l
		}
		if r < n && cs.heap[r].less(cs.heap[min]) {
			min = r
		}
		if min == i {
			break
		}
		cs.heap[i], cs.heap[min] = cs.heap[min], cs.heap[i]
		i = min
	}
	return top
}
