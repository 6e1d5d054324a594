// Package core is the CHAOS framework itself: the public API that ties
// together trace collection (internal/telemetry), feature selection
// (internal/featsel, Algorithm 1), model fitting (internal/models,
// Eqs. 1–4), cluster composition (Eq. 5), and evaluation under the DRE
// metric (internal/metrics) with the paper's run-based cross-validation
// protocol (§V: 5-fold, training sets roughly 10x smaller than test sets,
// train and test from separate application runs).
package core

import (
	"fmt"

	"repro/internal/counters"
	"repro/internal/featsel"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Dataset is everything collected from one cluster: per-workload machine
// traces plus the counter registry they were sampled against.
type Dataset struct {
	// Label names the cluster ("Core2", "Hetero", ...).
	Label string
	// ByWorkload maps workload name to all machine traces (machines x runs).
	ByWorkload map[string][]*trace.Trace
	Registry   *counters.Registry
	// ClusterIdle is the summed measured idle power of the machines.
	ClusterIdle float64
	// CollectorOverhead is the worst observed collector cost fraction.
	CollectorOverhead float64
}

// Collect simulates a homogeneous cluster of n machines of the named
// platform running each workload `runs` times and returns the dataset.
func Collect(platform string, n int, workloadNames []string, runs int, seed int64) (*Dataset, error) {
	c, err := telemetry.New(platform, n, seed)
	if err != nil {
		return nil, err
	}
	return collectFrom(c, platform, workloadNames, runs)
}

// CollectHeterogeneous is Collect for a mixed cluster, one machine per
// entry of platforms.
func CollectHeterogeneous(label string, platforms []string, workloadNames []string, runs int, seed int64) (*Dataset, error) {
	c, err := telemetry.NewHeterogeneous(platforms, seed)
	if err != nil {
		return nil, err
	}
	return collectFrom(c, label, workloadNames, runs)
}

func collectFrom(c *telemetry.Cluster, label string, workloadNames []string, runs int) (*Dataset, error) {
	ds := &Dataset{
		Label:       label,
		ByWorkload:  map[string][]*trace.Trace{},
		Registry:    c.Registry,
		ClusterIdle: c.IdleWatts(),
	}
	for _, w := range workloadNames {
		traces, err := c.RunWorkload(w, runs, 3000)
		if err != nil {
			return nil, fmt.Errorf("core: collecting %s on %s: %w", w, label, err)
		}
		ds.ByWorkload[w] = traces
	}
	ds.CollectorOverhead = c.CollectorOverhead()
	return ds, nil
}

// AllTraces returns every trace in the dataset (all workloads), the input
// Algorithm 1 wants for multi-application feature selection.
func (ds *Dataset) AllTraces() []*trace.Trace {
	var out []*trace.Trace
	for _, w := range sortedKeys(ds.ByWorkload) {
		out = append(out, ds.ByWorkload[w]...)
	}
	return out
}

// SelectFeatures runs Algorithm 1 over the whole dataset (all workloads,
// machines, and runs) and returns the cluster-specific feature set.
func (ds *Dataset) SelectFeatures() (*featsel.Result, error) {
	return featsel.SelectCluster(ds.AllTraces(), ds.Registry, featsel.Options{})
}

// ClusterSpec wraps a selected feature list as a models.FeatureSpec named
// "cluster".
func ClusterSpec(features []string) models.FeatureSpec {
	return models.FeatureSpec{Name: "cluster", Counters: features}
}

// GeneralSpec wraps a cross-platform feature list as a models.FeatureSpec
// named "general".
func GeneralSpec(features []string) models.FeatureSpec {
	return models.FeatureSpec{Name: "general", Counters: features}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// CVConfig configures one cross-validated model evaluation.
type CVConfig struct {
	Tech models.Technique
	Spec models.FeatureSpec
}

// How a model is fitted on its training run.
const (
	// trainStep subsamples the training run's rows: with 1 training run
	// vs 4 test runs it gives the paper's ~10x smaller training sets.
	trainStep = 2
	// maxTrainRows caps a cross-validation fold's pooled training rows
	// per platform, for fitting cost.
	maxTrainRows = 1000
	// maxKnots bounds the MARS knot candidates per feature.
	maxKnots = 8
)

// FoldResult is one fold's evaluation.
type FoldResult struct {
	TrainRun int
	// Machine is the summary averaged over machines and test runs at
	// machine granularity.
	Machine metrics.Summary
	// Cluster is the summary of the cluster-level (summed) prediction.
	Cluster metrics.Summary
}

// CVResult aggregates a cross-validation.
type CVResult struct {
	Tech     models.Technique
	SpecName string
	Folds    []FoldResult
	// Machine and Cluster are fold-averaged summaries.
	Machine metrics.Summary
	Cluster metrics.Summary
	// WorstFold indexes the fold with the highest cluster DRE.
	WorstFold int
}

// CrossValidate runs the paper's protocol on one workload's traces: each
// run takes a turn as the (subsampled) training set while the remaining
// runs form the test set; one pooled machine model is fitted per platform
// and composed into a cluster model (Eq. 5). The folds are fitted and
// scored concurrently and merged in run order, so the result is the same
// at any parallelism.
func CrossValidate(traces []*trace.Trace, cfg CVConfig) (*CVResult, error) {
	runs := trace.Runs(traces)
	if len(runs) < 2 {
		return nil, fmt.Errorf("core: cross-validation needs >= 2 runs, got %d", len(runs))
	}
	byRun := trace.ByRun(traces)
	res := &CVResult{Tech: cfg.Tech, SpecName: cfg.Spec.Label(), Folds: make([]FoldResult, len(runs))}
	errs := make([]error, len(runs))
	mathx.ParallelFor(len(runs), func(k int) {
		res.Folds[k], errs[k] = crossValidateFold(cfg, byRun, runs, runs[k])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var mAll, cAll []metrics.Summary
	for i, f := range res.Folds {
		mAll = append(mAll, f.Machine)
		cAll = append(cAll, f.Cluster)
		if f.Cluster.DRE > res.Folds[res.WorstFold].Cluster.DRE {
			res.WorstFold = i
		}
	}
	res.Machine = metrics.Average(mAll)
	res.Cluster = metrics.Average(cAll)
	return res, nil
}

// crossValidateFold fits the cluster model on trainRun and scores it on
// every other run.
func crossValidateFold(cfg CVConfig, byRun map[int][]*trace.Trace, runs []int, trainRun int) (FoldResult, error) {
	cm, err := FitCluster(cfg.Tech, cfg.Spec, byRun[trainRun], maxTrainRows)
	if err != nil {
		return FoldResult{}, fmt.Errorf("core: fold (train run %d): %w", trainRun, err)
	}
	var machineSums, clusterSums []metrics.Summary
	for _, testRun := range runs {
		if testRun == trainRun {
			continue
		}
		ms, cs, err := scoreFold(cm, byRun[testRun])
		if err != nil {
			return FoldResult{}, fmt.Errorf("core: fold (train %d, test %d): %w", trainRun, testRun, err)
		}
		machineSums = append(machineSums, ms...)
		clusterSums = append(clusterSums, cs)
	}
	return FoldResult{
		TrainRun: trainRun,
		Machine:  metrics.Average(machineSums),
		Cluster:  metrics.Average(clusterSums),
	}, nil
}

// FitCluster trains a cluster model the paper's way: every training trace
// is subsampled to every second row, each platform's pooled rows are
// capped at maxRows (maxRows <= 0: no cap), one machine model is fitted
// per platform, in sorted order, and the models compose per Eq. 5.
func FitCluster(tech models.Technique, spec models.FeatureSpec, train []*trace.Trace, maxRows int) (*models.ClusterModel, error) {
	byPlatform := map[string][]*trace.Trace{}
	for _, t := range train {
		byPlatform[t.Platform] = append(byPlatform[t.Platform], trace.Subsample(t, trainStep))
	}
	opts := models.FitOptions{FreqCol: spec.FreqInputIndex(), MaxKnots: maxKnots}
	var mms []*models.MachineModel
	for _, p := range sortedKeys(byPlatform) {
		mm, err := models.FitMachineModel(tech, trace.CapRows(byPlatform[p], maxRows), spec, opts)
		if err != nil {
			return nil, fmt.Errorf("platform %s: %w", p, err)
		}
		mms = append(mms, mm)
	}
	return models.NewClusterModel(mms...)
}

// ScoreRun scores a cluster model on one run's aligned machine traces: the
// summed prediction against the summed metered power, over the summed
// idle power of the machines (DRE, Eq. 6).
func ScoreRun(cm *models.ClusterModel, run []*trace.Trace) (metrics.Summary, error) {
	pred, actual, err := cm.PredictCluster(run)
	if err != nil {
		return metrics.Summary{}, err
	}
	idle := 0.0
	for _, t := range run {
		idle += t.IdleWatts
	}
	return metrics.Evaluate(pred, actual, idle)
}

// scoreFold scores a cluster model on one test run, predicting each trace
// once: each machine's own summary, and ScoreRun's cluster summary. The
// machine predictions, metered power and idle power are summed in trace
// order from zero, as PredictCluster and ScoreRun sum them, so the
// cluster summary is ScoreRun's bit for bit.
func scoreFold(cm *models.ClusterModel, run []*trace.Trace) ([]metrics.Summary, metrics.Summary, error) {
	if len(run) == 0 {
		return nil, metrics.Summary{}, fmt.Errorf("no traces to predict")
	}
	n := run[0].Len()
	pred, actual := make([]float64, n), make([]float64, n)
	idle := 0.0
	var sums []metrics.Summary
	for _, t := range run {
		if t.Len() != n {
			return nil, metrics.Summary{}, fmt.Errorf("trace lengths differ (%d vs %d); cluster traces must be aligned", t.Len(), n)
		}
		mm, ok := cm.ByPlatform[t.Platform]
		if !ok {
			return nil, metrics.Summary{}, fmt.Errorf("no model for platform %q", t.Platform)
		}
		p, err := mm.PredictTrace(t)
		if err != nil {
			return nil, metrics.Summary{}, err
		}
		s, err := metrics.Evaluate(p, t.Power, t.IdleWatts)
		if err != nil {
			return nil, metrics.Summary{}, err
		}
		sums = append(sums, s)
		for i := range pred {
			pred[i] += p[i]
			actual[i] += t.Power[i]
		}
		idle += t.IdleWatts
	}
	cs, err := metrics.Evaluate(pred, actual, idle)
	return sums, cs, err
}
