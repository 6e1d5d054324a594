package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/featsel"
	"repro/internal/mathx"
	"repro/internal/models"
	"repro/internal/trace"
)

// The train workload: the paper's model-building path, the work
// chaos-train does. Set-up collects 3-machine Core2 datasets (Prime and
// Sort, two runs each); each measured operation is one build on one of
// them: featsel.SelectCluster with default Options (Algorithm 1), one
// models.FitMachineModel per technique on the selected features, and
// core.CrossValidate of the quadratic model on each workload. It is the
// heaviest compute in the repo and the only workload that runs featsel,
// regress and mars.
//
// A build's cost depends on its data (how many counters survive each
// step of Algorithm 1), by up to a quarter between seeds, so a run builds
// trainDatasets datasets, dataset seeds trainDatasets*seed+i, once each
// before repeating any: the spread between runs then averages over them.
var trainWorkloads = []string{"Prime", "Sort"}

const trainDatasets = 3

// trainMaxDRE is the paper's bound on a cluster model's DRE, the one
// internal/core's tests hold the cross-validated quadratic model to.
// Every build must select at least one feature and stay within it.
const trainMaxDRE = 0.12

// trainOutcome is what one build must reproduce for its seed.
type trainOutcome struct {
	Features []string `json:"features"`
	// DRE is the cross-validated quadratic model's cluster DRE (Eq. 6),
	// averaged over the two workloads' cross-validations.
	DRE float64 `json:"dre"`
}

func (o trainOutcome) equal(p trainOutcome) bool {
	return o.DRE == p.DRE && slices.Equal(o.Features, p.Features)
}

// floors returns why a build's outcome is implausible, or "".
func (o trainOutcome) floors() string {
	if len(o.Features) == 0 || !(o.DRE > 0 && o.DRE <= trainMaxDRE) {
		return fmt.Sprintf("%d features, dre %v (want at least one feature and 0 < dre ≤ %v)", len(o.Features), o.DRE, trainMaxDRE)
	}
	return ""
}

// collectTrain collects the dataset of one dataset seed.
func collectTrain(b *bench, seed int64) (*core.Dataset, error) {
	start := b.ledNow()
	ds, err := core.Collect("Core2", 3, trainWorkloads, 2, seed)
	if b.traced() {
		b.led.add("telemetry.collect", 0, 0, start, b.led.now())
	}
	return ds, err
}

// trainSeeds are the dataset seeds of one run.
func trainSeeds(seed int64) []int64 {
	out := make([]int64, trainDatasets)
	for i := range out {
		out[i] = trainDatasets*seed + int64(i)
	}
	return out
}

// build is one model build. Spans, when traced, nest under train.build.
func build(b *bench, ds *core.Dataset) (trainOutcome, error) {
	var l *ledger
	var root uint64
	var start int64
	if b.traced() {
		l = b.led
		root = l.newID()
		start = l.now()
	}
	step := func(name string, fn func() error) error {
		if l == nil {
			return fn()
		}
		s := l.now()
		err := fn()
		l.add(name, root, root, s, l.now())
		return err
	}
	var out trainOutcome
	all := ds.AllTraces()
	var sel *featsel.Result
	if err := step("featsel.select", func() (err error) {
		sel, err = featsel.SelectCluster(all, ds.Registry, featsel.Options{})
		return err
	}); err != nil {
		return out, err
	}
	out.Features = sel.Features
	spec := core.ClusterSpec(sel.Features)

	train := make([]*trace.Trace, len(all))
	for i, t := range all {
		train[i] = trace.Subsample(t, 2)
	}
	for _, tech := range models.Techniques() {
		ts := spec
		if tech == models.TechSwitching && ts.FreqInputIndex() < 0 {
			ts = core.ClusterSpec(append(append([]string(nil), sel.Features...), counters.CPUFreqCore0))
		}
		if err := step("models.fit_"+string(tech), func() error {
			_, err := models.FitMachineModel(tech, train, ts, models.FitOptions{FreqCol: ts.FreqInputIndex(), MaxKnots: 8})
			return err
		}); err != nil {
			return out, fmt.Errorf("fit %s: %w", tech, err)
		}
	}
	if err := step("core.cv", func() error {
		for _, w := range trainWorkloads {
			cv, err := core.CrossValidate(ds.ByWorkload[w], core.CVConfig{Tech: models.TechQuadratic, Spec: spec})
			if err != nil {
				return fmt.Errorf("cross-validating %s: %w", w, err)
			}
			out.DRE += cv.Cluster.DRE / float64(len(trainWorkloads))
		}
		return nil
	}); err != nil {
		return out, err
	}
	if l != nil {
		l.addID(root, "train.build", 0, root, start, l.now())
	}
	return out, nil
}

func runTrain(b *bench) error {
	seeds := trainSeeds(b.seed)
	sets, err := setup(b, func() ([]*core.Dataset, error) {
		var out []*core.Dataset
		for _, s := range seeds {
			ds, err := collectTrain(b, s)
			if err != nil {
				return nil, err
			}
			out = append(out, ds)
		}
		return out, nil
	}, nil)
	if err != nil {
		return err
	}
	want := make([]trainOutcome, len(seeds))
	recorded := make([]bool, len(seeds))
	for i, s := range seeds {
		want[i], recorded[i] = expectedTrain(s)
	}
	var buildMS, rates []float64
	origin := time.Now()
	for n := 0; n < len(sets) || fits(origin, b.seconds, n); n++ {
		i := n % len(sets)
		start := time.Now()
		got, err := build(b, sets[i])
		d := time.Since(start)
		if err != nil {
			return err
		}
		b.attempted++
		if n < len(sets) {
			b.noteEntry("train", seeds[i], got)
			if !recorded[i] {
				// Nothing recorded to compare with: later builds of this
				// dataset must repeat the first.
				want[i] = got
			}
		}
		problem := got.floors()
		if problem == "" && !got.equal(want[i]) {
			problem = fmt.Sprintf("features %q dre %v, want %q dre %v", got.Features, got.DRE, want[i].Features, want[i].DRE)
		}
		if problem != "" {
			b.failed++
			b.note("failed: build %d (dataset seed %d): %s", n+1, seeds[i], problem)
		}
		buildMS = append(buildMS, float64(d)/1e6)
		rates = append(rates, 1/d.Seconds())
	}
	groups := make([][]float64, len(buildMS))
	for i, ms := range buildMS {
		groups[i] = []float64{ms}
	}
	b.latencies(groups)
	b.work(rates, len(buildMS))
	for i, s := range seeds {
		src := "recorded"
		if !recorded[i] {
			src = "not recorded: held to the floor, and later builds must repeat the first"
		}
		b.note("dataset seed %d (%s): dre = %.6f  features (%d): %q", s, src, want[i].DRE, len(want[i].Features), want[i].Features)
	}
	b.note("train_s = %.3f s (median of %d builds)", mathx.Median(buildMS)/1e3, len(buildMS))
	if b.traced() {
		if s := b.led.stats()["featsel.select"]; s != nil && s.n > 0 {
			b.set("featsel.select_s", float64(s.total)/float64(s.n)/1e9, s.n)
		}
		features := 0.0
		for _, w := range want {
			features += float64(len(w.Features)) / float64(len(want))
		}
		b.set("featsel.features", features, len(want))
		for _, name := range []string{"models.fit_linear", "models.fit_piecewise", "models.fit_quadratic", "models.fit_switching", "core.cv"} {
			ms, n := b.led.meanMS(name)
			b.set(name+"_ms", ms, n)
		}
	}
	return nil
}
