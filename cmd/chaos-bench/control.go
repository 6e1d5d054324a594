package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/control"
	"repro/internal/registry"
)

// ControlSchema identifies the power-capping control benchmark document
// (BENCH_control.json); bump on incompatible change.
const ControlSchema = "chaos-bench-control/v1"

// ControlDoc is the control benchmark document: at each fleet size, an
// uncapped twin establishes per-rack peaks and baseline throughput, then
// the model-predictive controller holds the same racks to 80% of peak
// and we score it against the simulator's hidden ground-truth meter.
type ControlDoc struct {
	Schema         string  `json:"schema"`
	GoVersion      string  `json:"go_version"`
	NumCPU         int     `json:"num_cpu"`
	Seed           int64   `json:"seed"`
	SimSeconds     int64   `json:"sim_seconds"`
	IntervalS      int64   `json:"interval_s"`
	BudgetFraction float64 `json:"budget_fraction"`
	// ReproVerified is set after the smallest cell is run twice and both
	// runs produced identical digests and served-throughput totals.
	ReproVerified bool          `json:"repro_verified"`
	Cells         []ControlCell `json:"cells"`
}

// ControlCell is one fleet-size measurement of the closed control loop.
type ControlCell struct {
	Machines int    `json:"machines"`
	Grid     string `json:"grid"`
	Budgets  int    `json:"budgets"`
	// CompliancePct is the share of budgeted (rack, second) samples
	// outside the settling window where hidden ground truth stayed at or
	// under budget (with the 1.5% meter-error allowance).
	CompliancePct float64 `json:"compliance_pct"`
	// ThroughputRetention is capped fleet CPU-seconds served over the
	// uncapped twin's — what the budget actually cost.
	ThroughputRetention float64 `json:"throughput_retention"`
	Ticks               int64   `json:"ticks"`
	Decisions           int64   `json:"decisions"`
	FreqActuations      int64   `json:"freq_actuations"`
	Migrations          int64   `json:"migrations"`
	DecisionsPerSec     float64 `json:"decisions_per_sec"`
	SimSecondsPerSec    float64 `json:"sim_seconds_per_sec"`
	WallMS              float64 `json:"wall_ms"`
	// Digest covers every machine record and control record of the
	// capped run; same seed and size must reproduce it bit for bit.
	Digest string `json:"digest"`
}

// controlGrid mirrors clusterGrid but keeps the 100-machine cell wide
// enough (2 racks) that budgets plus spare capacity both exist.
func controlGrid(n int) (rows, racks, perRack int, err error) {
	if n == 100 {
		return 2, 2, 25, nil
	}
	return clusterGrid(n)
}

// controlSpec builds a Core2 fleet with the heavy/idle mix the control
// tests use: heavy machines give the controller real work, idle ones are
// migration headroom.
func controlSpec(n int, seed int64) (*cluster.Spec, error) {
	rows, racks, perRack, err := controlGrid(n)
	if err != nil {
		return nil, err
	}
	return &cluster.Spec{
		Version: cluster.SpecVersion,
		Name:    fmt.Sprintf("bench-ctl-%d", n),
		Seed:    seed,
		Grid: &cluster.Grid{
			Rows: rows, RacksPerRow: racks, MachinesPerRack: perRack,
			Platforms: []cluster.Weighted{{Name: "Core2", Weight: 1}},
			Profiles: []cluster.Weighted{
				{Name: "heavy", Weight: 0.65},
				{Name: "idle", Weight: 0.35},
			},
		},
	}, nil
}

// controlRacks picks which racks get budgets: row-0, capped at five so
// the scoring cost stays proportionate at 20k machines.
func controlRacks(n int) ([]string, error) {
	_, racks, _, err := controlGrid(n)
	if err != nil {
		return nil, err
	}
	if racks > 5 {
		racks = 5
	}
	out := make([]string, racks)
	for i := range out {
		out[i] = fmt.Sprintf("row-0/rack-%d", i)
	}
	return out, nil
}

const (
	ctlIntervalS      = int64(15)
	ctlBudgetFraction = 0.80
	ctlMeterTol       = 1.015
)

// runControlCell measures one fleet size: uncapped twin for peaks and
// baseline throughput, then the capped run scored per budgeted rack per
// second against ground truth.
func runControlCell(n int, seed, simSeconds int64, reg *registry.Registry) (ControlCell, error) {
	spec, err := controlSpec(n, seed)
	if err != nil {
		return ControlCell{}, err
	}
	rackNames, err := controlRacks(n)
	if err != nil {
		return ControlCell{}, err
	}
	build := func() (*cluster.Topology, *cluster.ClusterSimulator, []*cluster.Level, error) {
		topo, err := cluster.Build(spec)
		if err != nil {
			return nil, nil, nil, err
		}
		levels := make([]*cluster.Level, len(rackNames))
		for i, r := range rackNames {
			l, ok := topo.FindLevel(r)
			if !ok {
				return nil, nil, nil, fmt.Errorf("size %d: rack %s missing", n, r)
			}
			levels[i] = l
		}
		return topo, cluster.NewSimulator(topo), levels, nil
	}

	// Uncapped twin: per-rack ground-truth peaks and fleet throughput.
	_, csU, levelsU, err := build()
	if err != nil {
		return ControlCell{}, err
	}
	peaks := make([]float64, len(levelsU))
	for ts := int64(1); ts <= simSeconds; ts++ {
		csU.RunUntil(ts)
		for i, l := range levelsU {
			if gt := l.GroundTruthWatts(); gt > peaks[i] {
				peaks[i] = gt
			}
		}
	}
	servedUncapped := csU.ServedCPU()
	if servedUncapped <= 0 {
		return ControlCell{}, fmt.Errorf("size %d: uncapped twin served nothing", n)
	}

	pol := &control.Policy{
		Version:              control.PolicyVersion,
		Name:                 fmt.Sprintf("bench-%d", n),
		IntervalS:            ctlIntervalS,
		MaxActuationsPerTick: 12,
		Migration:            control.MigrationPolicy{Enabled: true, MaxPerTick: 12},
	}
	minBudget := math.Inf(1)
	for i, r := range rackNames {
		b := peaks[i] * ctlBudgetFraction
		pol.Budgets = append(pol.Budgets, control.Budget{Level: r, Watts: b})
		if b < minBudget {
			minBudget = b
		}
	}
	pol.HysteresisWatts = minBudget * 0.04
	if err := pol.Validate(); err != nil {
		return ControlCell{}, err
	}

	// Capped run: score ground truth per budgeted rack per second.
	_, cs, levels, err := build()
	if err != nil {
		return ControlCell{}, err
	}
	ctl, err := control.New(cs, control.Config{Policy: pol, Registry: reg})
	if err != nil {
		return ControlCell{}, err
	}
	ctl.Start()
	settle := 2 * ctlIntervalS
	var samples, violations int64
	start := time.Now()
	for ts := int64(1); ts <= simSeconds; ts++ {
		cs.RunUntil(ts)
		if ts <= settle {
			continue
		}
		for i, l := range levels {
			samples++
			if l.GroundTruthWatts() > pol.Budgets[i].Watts*ctlMeterTol {
				violations++
			}
		}
	}
	wall := time.Since(start)
	ticks, decisions, freqActs, migActs := ctl.Stats()
	if samples == 0 {
		return ControlCell{}, fmt.Errorf("size %d: no scored seconds", n)
	}
	rows, racks, perRack, _ := controlGrid(n)
	cell := ControlCell{
		Machines:            n,
		Grid:                fmt.Sprintf("%dx%dx%d", rows, racks, perRack),
		Budgets:             len(rackNames),
		CompliancePct:       math.Round((1-float64(violations)/float64(samples))*1e4) / 100,
		ThroughputRetention: math.Round(cs.ServedCPU()/servedUncapped*1e4) / 1e4,
		Ticks:               ticks,
		Decisions:           decisions,
		FreqActuations:      freqActs,
		Migrations:          migActs,
		WallMS:              math.Round(wall.Seconds()*1e4) / 10,
		Digest:              cs.Digest(),
	}
	if s := wall.Seconds(); s > 0 {
		cell.DecisionsPerSec = math.Round(float64(decisions)/s*10) / 10
		cell.SimSecondsPerSec = math.Round(float64(simSeconds)/s*10) / 10
	}
	return cell, nil
}

func runControlBench(w io.Writer, out string, seed int64, sizes []int, simSeconds int64) error {
	// One bootstrap model serves every cell — same as the CLIs: trained
	// on calibration telemetry, admitted to a registry, never shown the
	// simulator's ground truth.
	cm, err := control.Bootstrap([]string{"Core2"}, seed)
	if err != nil {
		return err
	}
	reg := registry.New()
	if err := reg.Add("boot-1", cm, registry.Meta{Description: "control bench bootstrap", Source: "telemetry"}); err != nil {
		return err
	}
	doc := &ControlDoc{
		Schema: ControlSchema, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Seed: seed, SimSeconds: simSeconds,
		IntervalS: ctlIntervalS, BudgetFraction: ctlBudgetFraction,
	}
	for _, n := range sizes {
		cell, err := runControlCell(n, seed, simSeconds, reg)
		if err != nil {
			return err
		}
		doc.Cells = append(doc.Cells, cell)
		fmt.Fprintf(w, "machines=%-6d compliance %6.2f%%  retention %.4f  %8.1f decisions/s  %7.1f sim-s/s\n",
			n, cell.CompliancePct, cell.ThroughputRetention, cell.DecisionsPerSec, cell.SimSecondsPerSec)
	}
	// Reproducibility: the smallest cell rerun must replay the identical
	// machine + control record stream.
	rerun, err := runControlCell(sizes[0], seed, simSeconds, reg)
	if err != nil {
		return err
	}
	if rerun.Digest != doc.Cells[0].Digest {
		return fmt.Errorf("size %d not reproducible: digest %s then %s",
			sizes[0], doc.Cells[0].Digest, rerun.Digest)
	}
	doc.ReproVerified = true

	if err := writeDoc(out, doc); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d cells, repro verified)\n", out, len(doc.Cells))
	return nil
}

// checkControlDoc validates a control benchmark document. Beyond shape,
// it enforces the control contract the e2e test establishes: high cap
// compliance without giving up throughput, at every fleet size.
func checkControlDoc(path string, data []byte, w io.Writer) error {
	var doc ControlDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Cells) < 2 {
		return fmt.Errorf("%s: %d cells, want at least 2 fleet sizes", path, len(doc.Cells))
	}
	if !doc.ReproVerified {
		return fmt.Errorf("%s: repro_verified is false", path)
	}
	for i, c := range doc.Cells {
		if c.Machines <= 0 || c.Budgets <= 0 {
			return fmt.Errorf("%s: cell %d missing fleet or budgets", path, i)
		}
		if c.CompliancePct < 95 {
			return fmt.Errorf("%s: cell %d (%d machines) compliance %.2f%%, want ≥ 95%%", path, i, c.Machines, c.CompliancePct)
		}
		// The floor is 0.80 rather than the e2e test's 0.90 because the
		// 100-machine cell budgets half its fleet (2 of 4 racks), so
		// fleet-wide retention is structurally lower there.
		if c.ThroughputRetention < 0.80 || c.ThroughputRetention > 1.001 {
			return fmt.Errorf("%s: cell %d retention %v, want [0.80, 1]", path, i, c.ThroughputRetention)
		}
		if c.Ticks <= 0 || c.Decisions <= 0 || c.FreqActuations <= 0 {
			return fmt.Errorf("%s: cell %d controller never acted", path, i)
		}
		if c.DecisionsPerSec <= 0 || c.SimSecondsPerSec <= 0 {
			return fmt.Errorf("%s: cell %d has no throughput", path, i)
		}
		if len(c.Digest) != 64 {
			return fmt.Errorf("%s: cell %d missing digest", path, i)
		}
		if i > 0 && c.Machines <= doc.Cells[i-1].Machines {
			return fmt.Errorf("%s: cells not ordered by fleet size", path)
		}
	}
	large := doc.Cells[len(doc.Cells)-1]
	fmt.Fprintf(w, "%s: ok — %d fleet sizes up to %d machines, %.2f%% compliant at the largest\n",
		path, len(doc.Cells), large.Machines, large.CompliancePct)
	return nil
}
