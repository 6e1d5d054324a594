package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

func gridSpec(rows, racks, machines int, seed int64) *Spec {
	return &Spec{
		Version: SpecVersion,
		Name:    "test-dc",
		Seed:    seed,
		Grid: &Grid{
			Rows:            rows,
			RacksPerRow:     racks,
			MachinesPerRack: machines,
			Platforms: []Weighted{
				{Name: "XeonSAS", Weight: 0.5},
				{Name: "Opteron", Weight: 0.3},
				{Name: "Athlon", Weight: 0.2},
			},
			Profiles: []Weighted{
				{Name: "bursty", Weight: 0.5},
				{Name: "diurnal", Weight: 0.2},
				{Name: "steady", Weight: 0.15},
				{Name: "idle", Weight: 0.15},
			},
		},
	}
}

// TestClusterIncrementalMatchesFullRecompute is the Eq. 5 composability
// property: after EVERY processed event, the incrementally maintained
// aggregate at EVERY level of the hierarchy is bit-identical — not
// approximately equal — to a from-scratch recompute of that subtree.
func TestClusterIncrementalMatchesFullRecompute(t *testing.T) {
	topo, err := Build(gridSpec(3, 3, 4, 77))
	if err != nil {
		t.Fatal(err)
	}
	cs := NewSimulator(topo)
	const end = 900
	checked := 0
	for cs.HasPendingEvents() && cs.PeekNextEventTime() <= end {
		if !cs.ProcessNextEvent() {
			t.Fatal("ProcessNextEvent returned false with pending events")
		}
		for _, l := range topo.Levels {
			full := l.FullRecompute()
			inc := l.Watts()
			if math.Float64bits(full) != math.Float64bits(inc) {
				t.Fatalf("event %d: level %q incremental %v (bits %x) != full %v (bits %x)",
					cs.Events(), l.Name, inc, math.Float64bits(inc), full, math.Float64bits(full))
			}
		}
		checked++
	}
	if checked < 1000 {
		t.Fatalf("only %d events in %d simulated seconds; fleet looks stuck", checked, end)
	}
	// Root must aggregate a plausible fleet: 36 machines, each ≥ idle watts.
	var idleSum float64
	for _, m := range topo.Machines {
		idleSum += m.Machine.IdleWatts()
	}
	if got := topo.Root.Watts(); got < idleSum || got > idleSum*5 {
		t.Fatalf("datacenter watts %v implausible (fleet idle floor %v)", got, idleSum)
	}
}

// TestClusterDirtyPathIsSparse: an event must dirty only its machine's
// path to the root, leaving sibling subtrees untouched — the property
// that makes 20k-machine estimates O(changed) instead of O(n).
func TestClusterDirtyPathIsSparse(t *testing.T) {
	topo, err := Build(gridSpec(4, 4, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	cs := NewSimulator(topo)
	topo.Root.Watts() // settle: everything clean
	for _, l := range topo.Levels {
		if l.dirty {
			t.Fatalf("level %q still dirty after full read", l.Name)
		}
	}
	if !cs.ProcessNextEvent() {
		t.Fatal("no events")
	}
	dirty := 0
	for _, l := range topo.Levels {
		if l.dirty {
			dirty++
		}
	}
	// One machine changed: exactly its rack, its row, and the root.
	if dirty != 3 {
		t.Fatalf("one event dirtied %d levels, want 3 (rack, row, root)", dirty)
	}
}

// TestClusterIdleFleetHasNoEvents: a fleet of idle-profile machines
// schedules nothing — simulating an hour costs zero events — yet still
// reports the fleet's idle power.
func TestClusterIdleFleetHasNoEvents(t *testing.T) {
	s := gridSpec(2, 2, 5, 1)
	s.Grid.Profiles = []Weighted{{Name: "idle", Weight: 1}}
	topo, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewSimulator(topo)
	if cs.HasPendingEvents() {
		t.Fatal("idle fleet has pending events")
	}
	cs.RunUntil(3600)
	if cs.Events() != 0 || cs.Clock() != 3600 {
		t.Fatalf("events=%d clock=%d, want 0 and 3600", cs.Events(), cs.Clock())
	}
	var idleSum float64
	for _, m := range topo.Machines {
		idleSum += m.Machine.IdleWatts()
	}
	if got := topo.Root.Watts(); math.Float64bits(got) != math.Float64bits(topo.Root.FullRecompute()) || math.Abs(got-idleSum) > 1e-9 {
		t.Fatalf("idle fleet watts %v, want %v", got, idleSum)
	}
}

// TestClusterSimulationDeterministic: same spec, same duration — same
// event count, same step count, same digest, same total watts bits.
func TestClusterSimulationDeterministic(t *testing.T) {
	run := func() (int64, int64, string, uint64) {
		topo, err := Build(gridSpec(2, 3, 5, 42))
		if err != nil {
			t.Fatal(err)
		}
		cs := NewSimulator(topo)
		cs.RunUntil(1200)
		return cs.Events(), cs.Steps(), cs.Digest(), math.Float64bits(topo.Root.Watts())
	}
	e1, s1, d1, w1 := run()
	e2, s2, d2, w2 := run()
	if e1 != e2 || s1 != s2 || d1 != d2 || w1 != w2 {
		t.Fatalf("runs diverged: events %d/%d steps %d/%d digest %s/%s watts %x/%x",
			e1, e2, s1, s2, d1, d2, w1, w2)
	}
	if e1 == 0 || s1 == 0 {
		t.Fatal("no work simulated")
	}
}

// TestClusterEventLoopPrimitives: PeekNextEventTime orders events, the
// clock never runs backwards, and events for one machine arrive in time
// order.
func TestClusterEventLoopPrimitives(t *testing.T) {
	topo, err := Build(gridSpec(2, 2, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	cs := NewSimulator(topo)
	last := int64(-1)
	for i := 0; i < 5000 && cs.HasPendingEvents(); i++ {
		at := cs.PeekNextEventTime()
		if at < last {
			t.Fatalf("event time went backwards: %d after %d", at, last)
		}
		last = at
		cs.ProcessNextEvent()
		if cs.Clock() != at && cs.Clock() < at {
			t.Fatalf("clock %d behind processed event %d", cs.Clock(), at)
		}
	}
	if cs.Events() == 0 {
		t.Fatal("no events processed")
	}
}

// TestClusterGridAssignmentStable: grid platform/profile assignment is a
// pure function of (seed, machine id) — independent of grid dimensions
// enumerating the same ids, and different under a different seed.
func TestClusterGridAssignmentStable(t *testing.T) {
	a, err := Build(gridSpec(2, 2, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(gridSpec(2, 2, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i, m := range a.Machines {
		if m.ID != b.Machines[i].ID || m.Machine.Spec.Name != b.Machines[i].Machine.Spec.Name ||
			m.Profile.Kind != b.Machines[i].Profile.Kind {
			t.Fatalf("machine %d differs across identical builds", i)
		}
	}
	c, err := Build(gridSpec(2, 2, 4, 6))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range a.Machines {
		if m.Machine.Spec.Name != c.Machines[i].Machine.Spec.Name || m.Profile.Kind != c.Machines[i].Profile.Kind {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical assignments")
	}
}

// TestClusterTopologyValidation: the documented rejection rules.
func TestClusterTopologyValidation(t *testing.T) {
	mach := func(id string) MachineSpec { return MachineSpec{ID: id, Platform: "Atom"} }
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{
			name: "wrong version",
			spec: Spec{Version: "chaos-topology/v2", Name: "x", Grid: gridSpec(1, 1, 1, 0).Grid},
			want: "version",
		},
		{
			name: "missing name",
			spec: Spec{Version: SpecVersion, Grid: gridSpec(1, 1, 1, 0).Grid},
			want: "name",
		},
		{
			name: "both layouts",
			spec: Spec{Version: SpecVersion, Name: "x", Grid: gridSpec(1, 1, 1, 0).Grid,
				Tree: &Node{Name: "r", Machines: []MachineSpec{mach("a")}}},
			want: "exactly one",
		},
		{
			name: "neither layout",
			spec: Spec{Version: SpecVersion, Name: "x"},
			want: "exactly one",
		},
		{
			name: "duplicate machine ids",
			spec: Spec{Version: SpecVersion, Name: "x", Tree: &Node{Name: "dc", Children: []*Node{
				{Name: "rack-a", Machines: []MachineSpec{mach("m1"), mach("m2")}},
				{Name: "rack-b", Machines: []MachineSpec{mach("m1")}},
			}}},
			want: `duplicate machine id "m1"`,
		},
		{
			name: "empty rack",
			spec: Spec{Version: SpecVersion, Name: "x", Tree: &Node{Name: "dc", Children: []*Node{
				{Name: "rack-a", Machines: []MachineSpec{mach("m1")}},
				{Name: "rack-b"},
			}}},
			want: "empty",
		},
		{
			name: "machines deeper than four levels",
			spec: Spec{Version: SpecVersion, Name: "x", Tree: &Node{Name: "dc", Children: []*Node{
				{Name: "row", Children: []*Node{
					{Name: "rack", Children: []*Node{
						{Name: "shelf", Machines: []MachineSpec{mach("m1")}},
					}},
				}},
			}}},
			want: "deeper than 4",
		},
		{
			name: "unknown platform",
			spec: Spec{Version: SpecVersion, Name: "x", Tree: &Node{
				Name: "rack", Machines: []MachineSpec{{ID: "m1", Platform: "PDP11"}}}},
			want: "m1",
		},
		{
			name: "unknown profile",
			spec: Spec{Version: SpecVersion, Name: "x", Tree: &Node{
				Name: "rack", Machines: []MachineSpec{{ID: "m1", Platform: "Atom", Profile: "frantic"}}}},
			want: "m1",
		},
		{
			name: "grid with zero dimension",
			spec: func() Spec { s := gridSpec(0, 2, 2, 0); return *s }(),
			want: "≥ 1",
		},
		{
			name: "grid with unknown profile",
			spec: func() Spec {
				s := gridSpec(1, 1, 1, 0)
				s.Grid.Profiles = []Weighted{{Name: "frantic", Weight: 1}}
				return *s
			}(),
			want: "profiles mix",
		},
		{
			name: "grid with non-positive weight",
			spec: func() Spec {
				s := gridSpec(1, 1, 1, 0)
				s.Grid.Platforms = []Weighted{{Name: "Atom", Weight: 0}}
				return *s
			}(),
			want: "weight",
		},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: accepted, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// A maximal-depth valid tree must pass: dc → row → rack → machines.
	valid := Spec{Version: SpecVersion, Name: "x", Tree: &Node{Name: "dc", Children: []*Node{
		{Name: "row", Children: []*Node{
			{Name: "rack", Machines: []MachineSpec{mach("m1"), {ID: "m2", Platform: "Core2", Profile: "steady"}}},
		}},
	}}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid 4-level tree rejected: %v", err)
	}
	if got := valid.MachineCount(); got != 2 {
		t.Fatalf("MachineCount = %d, want 2", got)
	}

	// Grids whose machine count wraps an int: the first two wrap on 64
	// bits (to 0 and to about -9.2e18), the last on 32. They go through
	// JSON because 3037000500 is not a 32-bit int constant.
	for _, doc := range overflowingGrids() {
		if s, err := ParseSpec(doc); err == nil {
			t.Errorf("accepted a grid with MachineCount %d: %s", s.MachineCount(), doc)
		} else if !strings.Contains(err.Error(), "limit") && !strings.Contains(err.Error(), "cannot unmarshal") {
			t.Errorf("error %q names neither the machine limit nor the decode: %s", err, doc)
		}
	}
}

// overflowingGrids are grid documents whose dimensions multiply past
// MaxMachines far enough to wrap.
func overflowingGrids() [][]byte {
	var docs [][]byte
	for _, dims := range [][3]uint64{{2097152, 2097152, 4194304}, {3037000500, 3037000500, 1}, {65536, 65536, 1}} {
		docs = append(docs, []byte(fmt.Sprintf(`{"version":%q,"name":"dc","seed":1,"grid":{"rows":%d,"racks_per_row":%d,"machines_per_rack":%d,`+
			`"platforms":[{"name":"Atom","weight":1}],"profiles":[{"name":"idle","weight":1}]}}`,
			SpecVersion, dims[0], dims[1], dims[2])))
	}
	return docs
}

// TestClusterParseSpecStrict: unknown fields and trailing garbage are
// rejected rather than silently dropped.
func TestClusterParseSpecStrict(t *testing.T) {
	good := fmt.Sprintf(`{"version":%q,"name":"dc","seed":1,"tree":{"name":"rack","machines":[{"id":"m1","platform":"Atom"}]}}`, SpecVersion)
	s, err := ParseSpec([]byte(good))
	if err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}
	if s.MachineCount() != 1 {
		t.Fatal("wrong machine count")
	}
	for _, bad := range []string{
		`{"version":"chaos-topology/v1","name":"dc","grid":{"rows":1,"racksPerRow":1}}`, // unknown field casing
		good + `{"more":true}`, // trailing document
		good + `}`,             // trailing close brace
		good + `]`,             // trailing close bracket
		good + ` garbage`,      // trailing garbage
		`{`,                    // truncated
	} {
		if _, err := ParseSpec([]byte(bad)); err == nil {
			t.Errorf("accepted bad doc: %s", bad)
		}
	}
}

// FuzzClusterTopology: the decoder never panics, and any accepted
// document validates, describes 1 to MaxMachines machines, and survives a
// canonical marshal → parse → marshal round-trip byte-for-byte.
func FuzzClusterTopology(f *testing.F) {
	f.Add([]byte(fmt.Sprintf(`{"version":%q,"name":"dc","seed":7,"tree":{"name":"rack","machines":[{"id":"m1","platform":"Atom","profile":"bursty"}]}}`, SpecVersion)))
	seed, _ := json.Marshal(gridSpec(2, 2, 2, 3))
	f.Add(seed)
	f.Add([]byte(`{"version":"chaos-topology/v1","name":"dc","tree":{"name":"r","machines":[{"id":"a","platform":"Atom"},{"id":"a","platform":"Atom"}]}}`))
	f.Add([]byte(`{"version":"chaos-topology/v1","name":"dc","tree":{"name":"r","children":[{"name":"c"}]}}`))
	for _, tail := range []string{`}`, `]`, `{}`, ` garbage`} {
		f.Add([]byte(fmt.Sprintf(`{"version":%q,"name":"dc","seed":7,"tree":{"name":"rack","machines":[{"id":"m1","platform":"Atom"}]}}`, SpecVersion) + tail))
	}
	for _, doc := range overflowingGrids() {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec accepted a document Validate rejects: %v", err)
		}
		if n := s.MachineCount(); n < 1 || n > MaxMachines {
			t.Fatalf("accepted a document of %d machines, want 1 to %d", n, MaxMachines)
		}
		canon, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted document does not marshal: %v", err)
		}
		s2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		canon2, err := json.Marshal(s2)
		if err != nil {
			t.Fatal(err)
		}
		if string(canon) != string(canon2) {
			t.Fatalf("round-trip not stable:\n%s\n%s", canon, canon2)
		}
	})
}

// TestClusterCaptureAndSampling: captured machines expose counter
// signals; sampling an idle machine simulates one idle second out of
// band and keeps the hierarchy bit-consistent.
func TestClusterCaptureAndSampling(t *testing.T) {
	topo, err := Build(gridSpec(1, 2, 3, 11))
	if err != nil {
		t.Fatal(err)
	}
	cs := NewSimulator(topo)
	if err := cs.SetCapture(0); err != nil {
		t.Fatal(err)
	}
	cs.RunUntil(600)
	sig, watts, err := cs.SampleSignals(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) == 0 {
		t.Fatal("no signals captured")
	}
	if _, ok := sig["cpu_util"]; !ok {
		t.Fatalf("signals missing cpu_util: have %d keys", len(sig))
	}
	if math.IsNaN(watts) || watts <= 0 {
		t.Fatalf("sampled watts = %v", watts)
	}
	// Sampling a never-captured idle machine works too (out-of-band step).
	sig2, _, err := cs.SampleSignals(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig2) == 0 {
		t.Fatal("idle sample produced no signals")
	}
	if got, want := topo.Root.Watts(), topo.Root.FullRecompute(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("hierarchy inconsistent after out-of-band sampling: %v vs %v", got, want)
	}
}

// TestClusterTwentyThousandMachinesOneHour is the scale acceptance run:
// a 20k-machine grid simulates a full simulated hour with the
// incremental aggregate read (and spot-verified) along the way. Skipped
// in -short mode; the committed cluster benchmark covers it too.
func TestClusterTwentyThousandMachinesOneHour(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-machine hour in -short mode")
	}
	topo, err := Build(gridSpec(10, 50, 40, 20260808))
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Machines) != 20000 {
		t.Fatalf("machines = %d", len(topo.Machines))
	}
	cs := NewSimulator(topo)
	for tick := int64(600); tick <= 3600; tick += 600 {
		cs.RunUntil(tick)
		inc := topo.Root.Watts()
		full := topo.Root.FullRecompute()
		if math.Float64bits(inc) != math.Float64bits(full) {
			t.Fatalf("t=%d: incremental %v != full %v", tick, inc, full)
		}
		if inc <= 0 || math.IsNaN(inc) {
			t.Fatalf("t=%d: datacenter watts %v", tick, inc)
		}
	}
	if cs.Clock() != 3600 || cs.Events() == 0 {
		t.Fatalf("clock=%d events=%d", cs.Clock(), cs.Events())
	}
	// The event loop must beat lockstep: machine-seconds simulated must be
	// well under machines × seconds (the fleet is mostly idle).
	lockstep := int64(len(topo.Machines)) * 3600
	if cs.Steps() >= lockstep/2 {
		t.Fatalf("steps = %d of %d lockstep: fleet not sparse enough for event-driven payoff", cs.Steps(), lockstep)
	}
	t.Logf("20k-machine hour: %d events, %d steps (%.1f%% of lockstep), %d active at end",
		cs.Events(), cs.Steps(), 100*float64(cs.Steps())/float64(lockstep), cs.ActiveMachines())
}
