package cluster

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

// batchFleet builds a 500-machine fleet whose seconds hold several
// chunks of machine events: mostly heavy, with every other profile mixed
// in, three platforms, every 100th machine on the full-signals path, and
// a control loop scripted by scriptActuations.
func batchFleet(t *testing.T) *ClusterSimulator {
	t.Helper()
	topo, err := Build(&Spec{
		Version: SpecVersion,
		Name:    "batch-dc",
		Seed:    2026,
		Grid: &Grid{
			Rows: 5, RacksPerRow: 5, MachinesPerRack: 20,
			Platforms: []Weighted{
				{Name: "Core2", Weight: 0.8},
				{Name: "Opteron", Weight: 0.1},
				{Name: "Atom", Weight: 0.1},
			},
			Profiles: []Weighted{
				{Name: "heavy", Weight: 0.7},
				{Name: "steady", Weight: 0.1},
				{Name: "bursty", Weight: 0.05},
				{Name: "diurnal", Weight: 0.05},
				{Name: "idle", Weight: 0.1},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewSimulator(topo)
	for i := 0; i < len(topo.Machines); i += 100 {
		if err := cs.SetCapture(i); err != nil {
			t.Fatal(err)
		}
	}
	scriptActuations(t, cs)
	return cs
}

// scriptActuations queues a control loop that reaches the machines every
// way an actuation can. Every 15 s it caps a rotating set of machines,
// hands a busy machine's in-flight burst to a machine parked for good,
// moves a waiting machine's profile onto a machine parked for good (whose
// first wake can fall in the same second), and queues a follow-up
// actuation at the current second. Its choices read only the fleet's
// state, so twins that agree on the state make the same ones.
func scriptActuations(t *testing.T, cs *ClusterSimulator) {
	ms := cs.Topology().Machines
	find := func(from int, ok func(mn *MachineNode) bool) int {
		for j := 0; j < len(ms); j++ {
			if i := (from + j) % len(ms); ok(ms[i]) {
				return i
			}
		}
		return -1
	}
	parked := func(mn *MachineNode) bool { return !mn.active && !mn.pendingWake }
	migrate := func(from, to int) {
		if from < 0 || to < 0 {
			t.Errorf("no migration pair (%d → %d)", from, to)
			return
		}
		if err := cs.MigrateProfile(from, to); err != nil {
			t.Error(err)
		}
	}
	var tick func(now int64)
	tick = func(now int64) {
		k := int(now / 15)
		for i := k % 7; i < len(ms); i += 37 {
			states := len(ms[i].Machine.Spec.FreqStatesMHz)
			if err := cs.SetMachineFreqCap(i, (k+i)%states); err != nil {
				t.Error(err)
			}
		}
		migrate(find(k*13, func(mn *MachineNode) bool { return mn.active && mn.burstEnd > now }),
			find(k*29, parked))
		migrate(find(k*17, func(mn *MachineNode) bool { return !mn.active && mn.pendingWake }),
			find(k*31, parked))
		cs.ScheduleActuation(now, func(now int64) {
			i := (k * 41) % len(ms)
			if err := cs.SetMachineFreqCap(i, 0); err != nil {
				t.Error(err)
			}
		})
		cs.ScheduleActuation(now+15, tick)
	}
	cs.ScheduleActuation(15, tick)
}

// state is what the equivalence test compares at a checkpoint: the
// digest, the counts, the served CPU and every level's metered and
// ground-truth watts, floats as bits.
type state struct {
	digest        string
	events, steps int64
	active        int
	served        uint64
	watts, truth  []uint64
}

func stateOf(cs *ClusterSimulator) state {
	s := state{digest: cs.Digest(), events: cs.Events(), steps: cs.Steps(), active: cs.ActiveMachines(),
		served: math.Float64bits(cs.ServedCPU())}
	for _, l := range cs.topo.Levels {
		s.watts = append(s.watts, math.Float64bits(l.Watts()))
		s.truth = append(s.truth, math.Float64bits(l.GroundTruthWatts()))
	}
	return s
}

// TestClusterBatchedSecondsMatchEventByEvent: RunUntil takes whole
// seconds, stepping their machines in parallel and committing in index
// order; that must reach, bit for bit, the state of a twin stepped only by
// ProcessNextEvent, however the caller splits time and at any
// parallelism. The script caps, migrates (in-flight hand-offs and
// same-second wakes included) and queues actuations at the current
// second; heavy and steady machines re-wake in the second they park.
func TestClusterBatchedSecondsMatchEventByEvent(t *testing.T) {
	const end, every = int64(1200), int64(60)
	// The reference takes one event at a time, which never fans out, so
	// one run serves every GOMAXPROCS.
	ref := batchFleet(t)
	want := map[int64]state{}
	for cp := every; cp <= end; cp += every {
		for ref.HasPendingEvents() && ref.PeekNextEventTime() <= cp {
			ref.ProcessNextEvent()
		}
		want[cp] = stateOf(ref)
	}
	if perSecond := ref.Steps() / end; perSecond < 2*chunk {
		t.Fatalf("%d steps a second: too few for a second to fan out (%d)", perSecond, 2*chunk)
	}
	t.Logf("%d events, %d steps a second", ref.Events(), ref.Steps()/end)
	steppers := []struct {
		name  string
		jump  int64 // the stepper stops only at multiples of this
		drive func(cs *ClusterSimulator, from, to int64)
	}{
		{"RunUntil per second", every, func(cs *ClusterSimulator, from, to int64) {
			for ts := from + 1; ts <= to; ts++ {
				cs.RunUntil(ts)
			}
		}},
		{"RunUntil per 600 s", 600, func(cs *ClusterSimulator, from, to int64) {
			cs.RunUntil(to)
		}},
		// Part of each second one event at a time, the rest in a batch,
		// as perfbench's traced dc-cap run interleaves them.
		{"ProcessNextEvent then RunUntil", every, func(cs *ClusterSimulator, from, to int64) {
			for ts := from + 1; ts <= to; ts++ {
				for n := ts * 37 % 300; n > 0 && cs.HasPendingEvents() && cs.PeekNextEventTime() <= ts; n-- {
					cs.ProcessNextEvent()
				}
				cs.RunUntil(ts)
			}
		}},
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, d := range steppers {
				cs := batchFleet(t)
				for cp := d.jump; cp <= end; cp += d.jump {
					d.drive(cs, cp-d.jump, cp)
					if got := stateOf(cs); !reflect.DeepEqual(got, want[cp]) {
						t.Fatalf("%s, %d s: digest %s events %d steps %d active %d; one event at a time: %s, %d, %d, %d (or served CPU or level watts differ)",
							d.name, cp, got.digest, got.events, got.steps, got.active,
							want[cp].digest, want[cp].events, want[cp].steps, want[cp].active)
					}
				}
			}
		})
	}
}

// TestClusterPhaseSeconds: RunUntil adds the wall time of each phase of
// a simulated second to chaos_cluster_phase_seconds_total, never more in
// all than the time spent in it; ProcessNextEvent adds nothing.
func TestClusterPhaseSeconds(t *testing.T) {
	phases := []string{"actuate", "step", "commit"}
	read := func() []float64 {
		v := make([]float64, len(phases))
		for i, p := range phases {
			v[i] = obs.Default().Counter("chaos_cluster_phase_seconds_total", obs.Labels{"phase": p}).Value()
		}
		return v
	}
	cs := batchFleet(t)
	before := read()
	var wall time.Duration
	for ts := int64(1); ts <= 120; ts++ {
		start := time.Now()
		cs.RunUntil(ts)
		wall += time.Since(start)
	}
	after := read()
	var sum float64
	for i, p := range phases {
		d := after[i] - before[i]
		if !(d > 0) {
			t.Errorf("phase %q advanced %v s over 120 simulated seconds", p, d)
		}
		sum += d
	}
	if sum > wall.Seconds() {
		t.Errorf("phases sum to %v s, more than the %v s spent in RunUntil", sum, wall.Seconds())
	}
	for i := 0; i < 2000 && cs.ProcessNextEvent(); i++ {
	}
	if again := read(); fmt.Sprint(again) != fmt.Sprint(after) {
		t.Errorf("ProcessNextEvent moved the phase counters: %v → %v", after, again)
	}
}
