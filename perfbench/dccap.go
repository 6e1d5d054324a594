package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/control"
	"repro/internal/mathx"
	"repro/internal/registry"
)

// The dc-cap workload: the 1,000-machine Core2 fleet of BENCH_control.json
// (5 rows x 5 racks x 40 machines, 65% heavy and 35% idle profiles) held
// by the model-predictive capping controller to 80% of each row-0 rack's
// uncapped ground-truth peak, 15 s loop, migration on, with the
// control.Bootstrap switching model in the registry. Set-up runs the
// uncapped twin that gives the peaks and the retention baseline; each
// measured operation is one capped run of 1,200 simulated seconds, and its
// latency samples are the wall times of its simulated seconds. It is
// the only workload that drives cluster and control. At 1k machines a
// capped run takes about a second, where the 20k fleet's wall time
// wandered by more than half over same-seed runs.
const (
	dcRows, dcRacks, dcPerRack = 5, 5, 40
	dcSimSeconds               = int64(1200)
	dcInterval                 = int64(15)
	dcBudgetFraction           = 0.80
	// dcMeterTol is the 1.5% meter allowance of the compliance score.
	dcMeterTol = 1.015
	// dcMinCompliancePct and dcMinRetention are the floors chaos-bench
	// -control -check holds its cells to. Every capped run must meet them,
	// with compliance scored over the budgets the controller can meet: a
	// budget below its rack's summed idle power is one no actuation can
	// hold, and the controller reports it infeasible.
	dcMinCompliancePct = 95.0
	dcMinRetention     = 0.80
)

// dcFixture is what set-up leaves ready: the model registry, the fleet
// document, the budgets and the twin's baseline.
type dcFixture struct {
	spec   *cluster.Spec
	racks  []string
	reg    *registry.Registry
	peaks  []float64
	served float64
	// twin accounting for the cluster layer metrics.
	twinEvents int64
	twinNS     int64
	twinAllocs uint64
}

func newDCFixture(b *bench) (*dcFixture, error) {
	cm, err := control.Bootstrap([]string{"Core2"}, b.seed)
	if err != nil {
		return nil, err
	}
	f := &dcFixture{reg: registry.New()}
	if err := f.reg.Add("boot-1", cm, registry.Meta{Description: "perfbench dc-cap bootstrap", Source: "telemetry"}); err != nil {
		return nil, err
	}
	f.spec = &cluster.Spec{
		Version: cluster.SpecVersion,
		Name:    "perfbench-dc-cap",
		Seed:    b.seed,
		Grid: &cluster.Grid{
			Rows: dcRows, RacksPerRow: dcRacks, MachinesPerRack: dcPerRack,
			Platforms: []cluster.Weighted{{Name: "Core2", Weight: 1}},
			Profiles:  []cluster.Weighted{{Name: "heavy", Weight: 0.65}, {Name: "idle", Weight: 0.35}},
		},
	}
	for i := 0; i < dcRacks; i++ {
		f.racks = append(f.racks, fmt.Sprintf("row-0/rack-%d", i))
	}
	cs, levels, err := f.build()
	if err != nil {
		return nil, err
	}
	f.peaks = make([]float64, len(levels))
	m0 := mallocs()
	var ns int64
	for ts := int64(1); ts <= dcSimSeconds; ts++ {
		start := time.Now()
		cs.RunUntil(ts)
		ns += int64(time.Since(start))
		for i, l := range levels {
			if gt := l.GroundTruthWatts(); gt > f.peaks[i] {
				f.peaks[i] = gt
			}
		}
	}
	f.twinAllocs = mallocs() - m0
	f.twinNS = ns
	f.twinEvents = cs.Events()
	f.served = cs.ServedCPU()
	if f.served <= 0 {
		return nil, fmt.Errorf("uncapped twin served nothing")
	}
	return f, nil
}

// build makes a fresh simulator of the fleet and resolves the racks.
func (f *dcFixture) build() (*cluster.ClusterSimulator, []*cluster.Level, error) {
	topo, err := cluster.Build(f.spec)
	if err != nil {
		return nil, nil, err
	}
	levels := make([]*cluster.Level, len(f.racks))
	for i, r := range f.racks {
		l, ok := topo.FindLevel(r)
		if !ok {
			return nil, nil, fmt.Errorf("rack %s missing", r)
		}
		levels[i] = l
	}
	return cluster.NewSimulator(topo), levels, nil
}

// policy is the BENCH_control.json policy over the twin's peaks.
func (f *dcFixture) policy() (*control.Policy, error) {
	pol := &control.Policy{
		Version:              control.PolicyVersion,
		Name:                 "perfbench-dc-cap",
		IntervalS:            dcInterval,
		MaxActuationsPerTick: 12,
		Migration:            control.MigrationPolicy{Enabled: true, MaxPerTick: 12},
	}
	minBudget := math.Inf(1)
	for i, r := range f.racks {
		w := f.peaks[i] * dcBudgetFraction
		pol.Budgets = append(pol.Budgets, control.Budget{Level: r, Watts: w})
		minBudget = math.Min(minBudget, w)
	}
	pol.HysteresisWatts = minBudget * 0.04
	return pol, pol.Validate()
}

// dcOutcome is what one capped run must reproduce for its seed.
type dcOutcome struct {
	Samples        int64   `json:"samples"`
	Violations     int64   `json:"violations"`
	Retention      float64 `json:"retention"`
	Ticks          int64   `json:"ticks"`
	Decisions      int64   `json:"decisions"`
	FreqActuations int64   `json:"freq_actuations"`
	Migrations     int64   `json:"migrations"`
	Events         int64   `json:"events"`
	Digest         string  `json:"digest"`
}

func (o dcOutcome) compliancePct() float64 {
	return 100 * (1 - float64(o.Violations)/float64(o.Samples))
}

// cappedRun is one capped run and its timings.
type cappedRun struct {
	out dcOutcome
	// infeasible marks the budgets the controller reported below their
	// rack's idle floor; violations counts each budget's scored
	// rack-seconds over it.
	infeasible []bool
	violations []int64
	wall       time.Duration
	// perSecond is the wall ms of each simulated second: its events,
	// controller tick included, and its scoring.
	perSecond []float64
	runNS     int64 // time inside the simulator (RunUntil or stepping)
	allocs    uint64
}

// capped runs the controller over a fresh fleet for dcSimSeconds and
// scores every budgeted rack-second after the settling window against
// the simulator's hidden ground truth. When traced, it steps the run
// event by event with ProcessNextEvent and records a control.tick span
// for every event during which the controller's tick count advanced.
func (f *dcFixture) capped(b *bench, traced bool) (cappedRun, error) {
	cs, levels, err := f.build()
	if err != nil {
		return cappedRun{}, err
	}
	pol, err := f.policy()
	if err != nil {
		return cappedRun{}, err
	}
	ctl, err := control.New(cs, control.Config{Policy: pol, Registry: f.reg})
	if err != nil {
		return cappedRun{}, err
	}
	ctl.Start()
	settle := 2 * dcInterval
	run := cappedRun{perSecond: make([]float64, 0, dcSimSeconds), violations: make([]int64, len(levels))}
	var l *ledger
	var root uint64
	var rootStart int64
	if traced {
		l = b.led
		root = l.newID()
		rootStart = l.now()
	}
	var ticks int64
	m0 := mallocs()
	start := time.Now()
	for ts := int64(1); ts <= dcSimSeconds; ts++ {
		s0 := time.Now()
		if traced {
			secID := l.newID()
			t0 := l.now()
			for cs.HasPendingEvents() && cs.PeekNextEventTime() <= ts {
				e0 := l.now()
				cs.ProcessNextEvent()
				if t, _, _, _ := ctl.Stats(); t != ticks {
					ticks = t
					l.add("control.tick", secID, root, e0, l.now())
				}
			}
			cs.RunUntil(ts) // no events left at or before ts; advances the clock
			t1 := l.now()
			l.addID(secID, "cluster.run_until", root, root, t0, t1)
			run.runNS += t1 - t0
		} else {
			cs.RunUntil(ts)
			run.runNS += int64(time.Since(s0))
		}
		var sc0 int64
		if traced {
			sc0 = l.now()
		}
		if ts > settle {
			for i, lv := range levels {
				run.out.Samples++
				if lv.GroundTruthWatts() > pol.Budgets[i].Watts*dcMeterTol {
					run.out.Violations++
					run.violations[i]++
				}
			}
		}
		if traced {
			l.add("dccap.score", root, root, sc0, l.now())
		}
		run.perSecond = append(run.perSecond, float64(time.Since(s0))/1e6)
	}
	run.wall = time.Since(start)
	run.allocs = mallocs() - m0
	if traced {
		l.addID(root, "dccap.capped_run", 0, root, rootStart, l.now())
	}
	if run.out.Samples == 0 {
		return run, fmt.Errorf("no scored seconds")
	}
	run.out.Retention = cs.ServedCPU() / f.served
	run.out.Ticks, run.out.Decisions, run.out.FreqActuations, run.out.Migrations = ctl.Stats()
	run.out.Events = cs.Events()
	run.out.Digest = cs.Digest()
	for _, t := range ctl.StatusJSON().(control.Status).Targets {
		run.infeasible = append(run.infeasible, t.Infeasible)
	}
	return run, nil
}

// floors checks a capped run against dcMinCompliancePct, over the
// feasible budgets, and dcMinRetention; it returns the problem, or "".
func (f *dcFixture) floors(run cappedRun) string {
	var samples, violations int64
	perBudget := run.out.Samples / int64(len(f.racks))
	for i := range f.racks {
		if !run.infeasible[i] {
			samples += perBudget
			violations += run.violations[i]
		}
	}
	if samples > 0 {
		if pct := 100 * (1 - float64(violations)/float64(samples)); pct < dcMinCompliancePct {
			return fmt.Sprintf("compliance %.2f%% over the feasible budgets, below %.0f%%", pct, dcMinCompliancePct)
		}
	}
	if run.out.Retention < dcMinRetention {
		return fmt.Sprintf("retention %.4f, below %.2f", run.out.Retention, dcMinRetention)
	}
	return ""
}

func runDCCap(b *bench) error {
	f, err := setup(b, func() (*dcFixture, error) { return newDCFixture(b) }, nil)
	if err != nil {
		return err
	}
	want, recorded := expectedDC(b.seed)
	var seconds [][]float64
	var rates []float64
	origin := time.Now()
	for len(rates) == 0 || fits(origin, b.seconds, len(rates)) {
		run, err := f.capped(b, b.traced())
		if err != nil {
			return err
		}
		if b.attempted == 0 {
			b.noteEntry("dc-cap", b.seed, run.out)
			for i, inf := range run.infeasible {
				if inf {
					b.note("budget %s (%.1f W) is below the rack's idle floor: reported infeasible, %d of %d scored seconds over it",
						f.racks[i], f.peaks[i]*dcBudgetFraction, run.violations[i], run.out.Samples/int64(len(f.racks)))
				}
			}
			if !recorded {
				want = run.out
			}
		}
		b.attempted++
		problem := f.floors(run)
		if problem == "" && run.out != want {
			problem = fmt.Sprintf("gave %+v, want %+v", run.out, want)
		}
		if problem != "" {
			b.failed++
			b.note("failed: capped run %d: %s", len(rates)+1, problem)
		}
		seconds = append(seconds, run.perSecond)
		rates = append(rates, float64(dcSimSeconds)/run.wall.Seconds())
	}
	b.latencies(seconds)
	b.work(rates, len(rates))
	o := want
	src := "recorded for this seed"
	if !recorded {
		src = "not recorded: held to the floors, and every run must match the first"
	}
	b.note("capped runs %d; expected outcome %s; floors: compliance ≥ %.0f%% over feasible budgets, retention ≥ %.2f",
		len(rates), src, dcMinCompliancePct, dcMinRetention)
	b.note("compliance_pct = %.4f %% (%d rack-seconds)  retention = %.6f  ticks %d  decisions %d  freq caps %d  migrations %d",
		o.compliancePct(), o.Samples, o.Retention, o.Ticks, o.Decisions, o.FreqActuations, o.Migrations)
	b.note("sim_s_per_s median %.1f over %d capped runs; digest %s", mathx.Median(rates), len(rates), o.Digest)

	if b.traced() {
		// Cluster costs come from RunUntil alone, untraced: the twin in
		// set-up and one more capped run.
		plain, err := f.capped(b, false)
		if err != nil {
			return err
		}
		if p := f.floors(plain); p != "" {
			b.fail("untraced capped run: %s", p)
		} else if plain.out != want {
			b.fail("untraced capped run gave %+v, want %+v", plain.out, want)
		}
		events := f.twinEvents + plain.out.Events
		b.set("cluster.events", float64(events), 2)
		b.set("cluster.ns_per_event", float64(f.twinNS+plain.runNS)/float64(events), int(events))
		b.set("cluster.allocs_per_event", float64(f.twinAllocs+plain.allocs)/float64(events), int(events))
		st := b.led.stats()
		if t, r := st["control.tick"], st["dccap.capped_run"]; t != nil && r != nil {
			b.set("control.tick_ms", float64(t.total)/float64(t.n)/1e6, t.n)
			b.set("control.share_pct", 100*float64(t.total)/float64(r.total), r.n)
		}
		b.set("control.decisions", float64(o.Decisions), 1)
		b.set("control.freq_actuations", float64(o.FreqActuations), 1)
		b.set("control.migrations", float64(o.Migrations), 1)
	}
	return nil
}
