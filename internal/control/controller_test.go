package control

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/registry"
)

// ctlSpec builds a Core2-only fleet with heavy + idle profiles: enough
// dynamic range between idle floor and peak for the controller to have
// something to enforce.
func ctlSpec(rows, racks, machines int, seed int64) *cluster.Spec {
	return &cluster.Spec{
		Version: cluster.SpecVersion,
		Name:    "ctl-dc",
		Seed:    seed,
		Grid: &cluster.Grid{
			Rows:            rows,
			RacksPerRow:     racks,
			MachinesPerRack: machines,
			Platforms:       []cluster.Weighted{{Name: "Core2", Weight: 1}},
			Profiles: []cluster.Weighted{
				{Name: "heavy", Weight: 0.65},
				{Name: "idle", Weight: 0.35},
			},
		},
	}
}

// bootReg trains and admits the bootstrap switching model once per test
// binary (training is deterministic, so sharing it is safe).
var sharedModel *models.ClusterModel

func bootReg(t *testing.T) *registry.Registry {
	t.Helper()
	if sharedModel == nil {
		cm, err := Bootstrap([]string{"Core2"}, 424242)
		if err != nil {
			t.Fatal(err)
		}
		sharedModel = cm
	}
	reg := registry.New()
	if err := reg.Add("boot-1", sharedModel, registry.Meta{Description: "bootstrap switching model"}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func rackPolicy(rack string, watts, hyst float64, interval int64) *Policy {
	p := &Policy{
		Version:         PolicyVersion,
		Name:            "test",
		IntervalS:       interval,
		HysteresisWatts: hyst,
		Budgets:         []Budget{{Level: rack, Watts: watts}},
		Migration:       MigrationPolicy{Enabled: true},
	}
	p.applyDefaults()
	return p
}

func TestControlNewValidation(t *testing.T) {
	topo, err := cluster.Build(ctlSpec(1, 2, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	cs := cluster.NewSimulator(topo)
	reg := bootReg(t)
	if _, err := New(cs, Config{Policy: nil, Registry: reg}); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := New(cs, Config{Policy: rackPolicy("row-0/rack-0", 900, 10, 30), Registry: registry.New()}); err == nil {
		t.Fatal("empty registry accepted")
	}
	if _, err := New(cs, Config{Policy: rackPolicy("no-such-rack", 900, 10, 30), Registry: reg}); err == nil {
		t.Fatal("unknown budget level accepted")
	}
	c, err := New(cs, Config{Policy: rackPolicy("row-0/rack-0", 900, 10, 30), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.StatusJSON().(Status); len(st.Targets) != 1 || st.Targets[0].Level != "row-0/rack-0" || st.Targets[0].BudgetWatts != 900 {
		t.Fatalf("budget not resolved onto its level: %+v", st.Targets)
	}
	if len(c.spares) == 0 {
		t.Fatal("no spares inventoried despite idle machines outside the budget")
	}
	for _, idx := range c.spares {
		if topo.Machines[idx].Profile.Kind != "idle" {
			t.Fatalf("spare %d has profile %q", idx, topo.Machines[idx].Profile.Kind)
		}
	}
}

// TestControlRowBuilderRejectsUnderivable: a model whose inputs the
// control plane cannot supply must be rejected up front.
func TestControlRowBuilderRejectsUnderivable(t *testing.T) {
	spec := models.FeatureSpec{Name: "cluster", Counters: []string{counters.CPUTotal, `LogicalDisk(_Total)\Disk Read Bytes/sec`}}
	if _, err := newRowBuilder(spec); err == nil {
		t.Fatal("disk-counter model accepted for control")
	}
	ok := models.FeatureSpec{Name: "cluster", Counters: []string{counters.CPUTotal, counters.CPUFreqCore0}, LagFreq: true}
	rb, err := newRowBuilder(ok)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.row) != 3 || len(rb.freqIdx) != 2 {
		t.Fatalf("lagged spec rows: row=%d freqIdx=%d", len(rb.row), len(rb.freqIdx))
	}
}

// TestControlEnforcesRackBudget: a rack driven hot by heavy profiles is
// brought under an aggressive budget and held there, with actuations
// recorded and the hierarchy never read through ground truth.
func TestControlEnforcesRackBudget(t *testing.T) {
	seed := int64(909)
	rack := "row-0/rack-0"

	// Uncapped reference: find this rack's natural peak.
	topoA, err := cluster.Build(ctlSpec(1, 2, 24, seed))
	if err != nil {
		t.Fatal(err)
	}
	csA := cluster.NewSimulator(topoA)
	lA, _ := topoA.FindLevel(rack)
	peak := 0.0
	for ts := int64(1); ts <= 900; ts++ {
		csA.RunUntil(ts)
		if gt := lA.GroundTruthWatts(); gt > peak {
			peak = gt
		}
	}

	topo, err := cluster.Build(ctlSpec(1, 2, 24, seed))
	if err != nil {
		t.Fatal(err)
	}
	cs := cluster.NewSimulator(topo)
	budget := peak * 0.85
	hyst := budget * 0.04
	c, err := New(cs, Config{Policy: rackPolicy(rack, budget, hyst, 15), Registry: bootReg(t)})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	l, _ := topo.FindLevel(rack)
	over, counted := 0, 0
	for ts := int64(1); ts <= 900; ts++ {
		cs.RunUntil(ts)
		if ts <= 60 { // settling
			continue
		}
		counted++
		if l.GroundTruthWatts() > budget*1.015 {
			over++
		}
	}
	ticks, decisions, freqActs, _ := c.Stats()
	if ticks < 50 {
		t.Fatalf("only %d ticks in 900 s at 15 s interval", ticks)
	}
	if freqActs == 0 {
		t.Fatal("controller never actuated a frequency cap")
	}
	if decisions == 0 {
		t.Fatal("controller evaluated no candidates")
	}
	if frac := float64(over) / float64(counted); frac > 0.05 {
		t.Fatalf("rack over budget %.1f%% of counted seconds (budget %.0f W, peak %.0f W)",
			frac*100, budget, peak)
	}
}

// TestControlSafeHoldDuringMeterDropout: with the meter down, the
// controller may still shed but must never relax caps — even with huge
// headroom — because it cannot confirm the slack.
func TestControlSafeHoldDuringMeterDropout(t *testing.T) {
	run := func(dropout bool) int {
		topo, err := cluster.Build(ctlSpec(1, 1, 12, 7))
		if err != nil {
			t.Fatal(err)
		}
		cs := cluster.NewSimulator(topo)
		// Cap everything to the floor before the controller exists.
		for i := range topo.Machines {
			if err := cs.SetMachineFreqCap(i, 0); err != nil {
				t.Fatal(err)
			}
		}
		var inj *faults.Injector
		if dropout {
			sc := &faults.Scenario{Name: "meter-out", MeterDropouts: []faults.Window{{StartS: 0, EndS: 100000}}}
			inj, err = faults.NewInjector(sc, 1)
			if err != nil {
				t.Fatal(err)
			}
		}
		// A generous budget: relax would fire on every tick if allowed.
		c, err := New(cs, Config{Policy: rackPolicy("row-0/rack-0", 1e6, 10, 15), Registry: bootReg(t), Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		cs.RunUntil(600)
		raised := 0
		for _, mn := range topo.Machines {
			if mn.Machine.FreqCap() > 0 {
				raised++
			}
		}
		return raised
	}
	if raised := run(true); raised != 0 {
		t.Fatalf("meter down: %d caps relaxed during dropout", raised)
	}
	if raised := run(false); raised == 0 {
		t.Fatal("meter up: no caps relaxed despite huge headroom")
	}
}

// TestControlStatusAndApplyPolicy: the status document reports the policy
// New applies — policy name, loop counters, one target for the named
// level alone with its budget, and the serving model version.
func TestControlStatusAndApplyPolicy(t *testing.T) {
	topo, err := cluster.Build(ctlSpec(1, 2, 10, 21))
	if err != nil {
		t.Fatal(err)
	}
	cs := cluster.NewSimulator(topo)
	c, err := New(cs, Config{Policy: rackPolicy("row-0/rack-0", 700, 10, 30), Registry: bootReg(t)})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	cs.RunUntil(120)

	raw, err := json.Marshal(c.StatusJSON())
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Policy != "test" || st.Ticks < 3 || len(st.Targets) != 1 {
		t.Fatalf("status %+v", st)
	}
	if st.Targets[0].Level != "row-0/rack-0" || st.Targets[0].BudgetWatts != 700 {
		t.Fatalf("target status %+v", st.Targets[0])
	}
	if st.ModelVersion != "boot-1" {
		t.Fatalf("model version %q", st.ModelVersion)
	}
}

// TestControlInfeasibleBudgetFlagged: a budget below the level's summed
// idle watts cannot be met by any actuation; the controller reports the
// floor in status, flags the target, and emits cap_infeasible exactly
// once instead of silently migrating the level empty. A feasible budget
// on a fresh fleet is not flagged.
func TestControlInfeasibleBudgetFlagged(t *testing.T) {
	// capRack budgets row-0/rack-0 of a fresh fleet at frac × its idle
	// floor, runs 200 s, and returns the target's status, the floor, and
	// the emitted events.
	capRack := func(frac float64) (TargetStatus, float64, string) {
		topo, err := cluster.Build(ctlSpec(1, 2, 10, 33))
		if err != nil {
			t.Fatal(err)
		}
		cs := cluster.NewSimulator(topo)
		rack, _ := topo.FindLevel("row-0/rack-0")
		floor := 0.0
		for _, mn := range rack.Machines {
			floor += mn.Machine.IdleWatts()
		}
		var events bytes.Buffer
		c, err := New(cs, Config{
			Policy:   rackPolicy("row-0/rack-0", floor*frac, 5, 15),
			Registry: bootReg(t),
			Events:   obs.NewEventSink(&events),
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		cs.RunUntil(200)

		raw, err := json.Marshal(c.StatusJSON())
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		return st.Targets[0], floor, events.String()
	}

	tgt, floor, events := capRack(0.5)
	if tgt.IdleFloorWatts != floor {
		t.Fatalf("idle floor %v, want %v", tgt.IdleFloorWatts, floor)
	}
	if !tgt.Infeasible {
		t.Fatalf("budget %v below floor %v not flagged infeasible", tgt.BudgetWatts, floor)
	}
	if n := strings.Count(events, `"cap_infeasible"`); n != 1 {
		t.Fatalf("cap_infeasible emitted %d times, want once:\n%s", n, events)
	}

	tgt, _, events = capRack(2)
	if tgt.Infeasible || strings.Contains(events, `"cap_infeasible"`) {
		t.Fatalf("feasible budget flagged: %+v\n%s", tgt, events)
	}
}
