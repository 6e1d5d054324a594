// Package telemetry is the measurement infrastructure (paper §III-B): a
// 1 Hz collector that samples the OS counter namespace and the power meter
// on every machine, and a cluster runner that executes Dryad jobs on
// simulated clusters while logging traces.
//
// The collector times its own sampling work so the paper's "< 1% CPU
// overhead" claim can be checked against this implementation.
package telemetry

import (
	"fmt"
	"time"

	"repro/internal/counters"
	"repro/internal/dryad"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// samplesTotal counts every counter-vector sample taken by any collector;
// resolved once so the 1 Hz hot path pays only an atomic add.
var samplesTotal = obs.Default().Counter("chaos_collector_samples_total", nil)

// Collector samples one machine's counter vector at 1 Hz, accounting for
// its own CPU cost.
type Collector struct {
	exp        *counters.Expander
	overheadNS int64
	samples    int
}

// NewCollector returns a collector over the registry with a deterministic
// observation-noise stream.
func NewCollector(reg *counters.Registry, seed int64) *Collector {
	return &Collector{exp: counters.NewExpander(reg, seed)}
}

// Sample expands one second of base signals into the counter vector.
func (c *Collector) Sample(sig counters.Signals) ([]float64, error) {
	start := time.Now()
	row, err := c.exp.Sample(sig)
	c.overheadNS += time.Since(start).Nanoseconds()
	c.samples++
	samplesTotal.Inc()
	return row, err
}

// OverheadFraction returns the collector's measured CPU cost as a fraction
// of the sampling interval — the quantity the paper bounds below 1%.
// A zero or negative interval yields 0 rather than a division blow-up, so
// the overhead gauges can never publish Inf/NaN.
func (c *Collector) OverheadFraction(interval time.Duration) float64 {
	if c.samples == 0 || interval <= 0 {
		return 0
	}
	perSample := float64(c.overheadNS) / float64(c.samples)
	return perSample / float64(interval.Nanoseconds())
}

// Samples returns how many samples the collector has taken.
func (c *Collector) Samples() int { return c.samples }

// Cluster is a set of instrumented machines (possibly heterogeneous) that
// can execute Dryad jobs while logging per-machine traces.
type Cluster struct {
	Registry   *counters.Registry
	Machines   []*sim.Machine
	collectors []*Collector
	seed       int64
}

// New builds a homogeneous cluster of n machines of the named platform.
func New(platform string, n int, seed int64) (*Cluster, error) {
	names := make([]string, n)
	for i := range names {
		names[i] = platform
	}
	return NewHeterogeneous(names, seed)
}

// NewHeterogeneous builds a cluster with one machine per listed platform
// name (repeat names for multiple machines of a class).
func NewHeterogeneous(platforms []string, seed int64) (*Cluster, error) {
	return NewHeterogeneousNoisy(platforms, seed, sim.DefaultNoise())
}

// NewWithNoise builds a homogeneous cluster with an explicit simulator
// noise profile (used by the substrate-sensitivity ablation).
func NewWithNoise(platform string, n int, seed int64, np sim.NoiseProfile) (*Cluster, error) {
	names := make([]string, n)
	for i := range names {
		names[i] = platform
	}
	return NewHeterogeneousNoisy(names, seed, np)
}

// NewHeterogeneousNoisy is NewHeterogeneous with an explicit noise profile.
func NewHeterogeneousNoisy(platforms []string, seed int64, np sim.NoiseProfile) (*Cluster, error) {
	if len(platforms) == 0 {
		return nil, fmt.Errorf("telemetry: empty cluster")
	}
	reg := counters.StandardRegistry()
	c := &Cluster{Registry: reg, seed: seed}
	for i, p := range platforms {
		spec, err := sim.Platform(p)
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("%s-%d", p, i)
		m, err := sim.NewMachineNoisy(spec, id, mathx.DeriveSeed(seed, "cluster:"+id), np)
		if err != nil {
			return nil, err
		}
		c.Machines = append(c.Machines, m)
		c.collectors = append(c.collectors, NewCollector(reg, mathx.DeriveSeed(seed, "collector:"+id)))
	}
	return c, nil
}

// Size returns the number of machines.
func (c *Cluster) Size() int { return len(c.Machines) }

// IdleWatts returns the cluster's summed measured idle power.
func (c *Cluster) IdleWatts() float64 {
	s := 0.0
	for _, m := range c.Machines {
		s += m.IdleWatts()
	}
	return s
}

// CollectorOverhead returns the worst per-machine collector overhead
// fraction observed so far at a 1 s sampling interval.
func (c *Cluster) CollectorOverhead() float64 {
	worst := 0.0
	for _, col := range c.collectors {
		if f := col.OverheadFraction(time.Second); f > worst {
			worst = f
		}
	}
	return worst
}

// publishOverhead exports every collector's measured overhead fraction —
// the quantity the paper bounds below 1% — as per-machine gauges, plus the
// cluster-worst value the dashboards alert on.
func (c *Cluster) publishOverhead() {
	reg := obs.Default()
	worst := 0.0
	for i, col := range c.collectors {
		f := col.OverheadFraction(time.Second)
		reg.Gauge("chaos_collector_overhead_fraction", obs.Labels{"machine": c.Machines[i].ID}).Set(f)
		if f > worst {
			worst = f
		}
	}
	reg.Gauge("chaos_collector_overhead_worst_fraction", nil).Set(worst)
}

// idlePadding is the number of near-idle seconds logged before and after
// each job, anchoring traces at the bottom of the power range the way the
// paper's run logs do.
const idlePadding = 12

// RunJob executes the job once (run index run) and returns one trace per
// machine. maxSeconds bounds the simulation; exceeding it is an error so
// miscalibrated workloads fail loudly instead of looping.
func (c *Cluster) RunJob(job *dryad.Job, run int, maxSeconds int) ([]*trace.Trace, error) {
	if maxSeconds <= 0 {
		maxSeconds = 3000
	}
	span := obs.StartSpan("telemetry.run_job")
	defer span.End()
	defer c.publishOverhead()
	slots := make([]int, len(c.Machines))
	for i, m := range c.Machines {
		slots[i] = m.Spec.Cores + 2
	}
	schedSeed := mathx.DeriveSeed(c.seed, fmt.Sprintf("run:%s:%d", job.Name, run))
	sched, err := dryad.NewScheduler(job, slots, schedSeed)
	if err != nil {
		return nil, err
	}

	builders := make([]*trace.Builder, len(c.Machines))
	for i, m := range c.Machines {
		builders[i] = trace.NewBuilder(m.Spec.Name, job.Name, m.ID, run, c.Registry.Names(), m.IdleWatts())
	}

	step := func(demandFor func(int) sim.Demand, apply bool) error {
		for i, m := range c.Machines {
			served, sig, power := m.Step(demandFor(i))
			row, err := c.collectors[i].Sample(sig)
			if err != nil {
				return err
			}
			if err := builders[i].Add(row, power.MeterWatts, power.TrueWatts); err != nil {
				return err
			}
			if apply {
				sched.Apply(i, served)
			}
		}
		return nil
	}

	for t := 0; t < idlePadding; t++ {
		if err := step(func(int) sim.Demand { return sim.Demand{} }, false); err != nil {
			return nil, err
		}
	}
	for t := 0; ; t++ {
		if sched.Done() {
			break
		}
		if t >= maxSeconds {
			return nil, fmt.Errorf("telemetry: job %q did not finish in %d s (%d/%d tasks done)",
				job.Name, maxSeconds, sched.Finished(), job.TotalTasks())
		}
		sched.Tick()
		if err := step(sched.Demand, true); err != nil {
			return nil, err
		}
	}
	for t := 0; t < idlePadding; t++ {
		if err := step(func(int) sim.Demand { return sim.Demand{} }, false); err != nil {
			return nil, err
		}
	}

	out := make([]*trace.Trace, len(builders))
	for i, b := range builders {
		tr, err := b.Build()
		if err != nil {
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}

// RunSequence executes several jobs back to back on the cluster and
// returns one continuous trace per machine — a day-in-the-life log where
// the workload mix changes mid-stream, which is what online drift
// detection faces in production. gapSeconds of idle separate consecutive
// jobs.
func (c *Cluster) RunSequence(workloadNames []string, gapSeconds, maxSecondsPerJob int, run int) ([]*trace.Trace, error) {
	if len(workloadNames) == 0 {
		return nil, fmt.Errorf("telemetry: empty sequence")
	}
	if gapSeconds < 0 {
		gapSeconds = 0
	}
	span := obs.StartSpan("telemetry.run_sequence")
	defer span.End()
	defer c.publishOverhead()
	builders := make([]*trace.Builder, len(c.Machines))
	for i, m := range c.Machines {
		builders[i] = trace.NewBuilder(m.Spec.Name, "sequence", m.ID, run, c.Registry.Names(), m.IdleWatts())
	}
	appendTraces := func(ts []*trace.Trace) error {
		for i, t := range ts {
			for k := 0; k < t.Len(); k++ {
				if err := builders[i].Add(t.X.Row(k), t.Power[k], t.TruePower[k]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for wi, name := range workloadNames {
		job, err := workloadJob(name, c.Size())
		if err != nil {
			return nil, err
		}
		ts, err := c.RunJob(job, run*100+wi, maxSecondsPerJob)
		if err != nil {
			return nil, err
		}
		if err := appendTraces(ts); err != nil {
			return nil, err
		}
		if wi < len(workloadNames)-1 && gapSeconds > 0 {
			for g := 0; g < gapSeconds; g++ {
				for i, m := range c.Machines {
					_, sig, power := m.Step(sim.Demand{})
					row, err := c.collectors[i].Sample(sig)
					if err != nil {
						return nil, err
					}
					if err := builders[i].Add(row, power.MeterWatts, power.TrueWatts); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	out := make([]*trace.Trace, len(builders))
	for i, b := range builders {
		t, err := b.Build()
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// RunWorkload builds the named workload and executes it `runs` times,
// returning all machine traces. Each run gets a different scheduler seed,
// so work is partitioned differently (the paper's train/test separation
// relies on this).
func (c *Cluster) RunWorkload(name string, runs, maxSeconds int) ([]*trace.Trace, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("telemetry: runs must be positive, got %d", runs)
	}
	job, err := workloadJob(name, c.Size())
	if err != nil {
		return nil, err
	}
	var all []*trace.Trace
	for r := 0; r < runs; r++ {
		traces, err := c.RunJob(job, r, maxSeconds)
		if err != nil {
			return nil, err
		}
		all = append(all, traces...)
	}
	return all, nil
}
