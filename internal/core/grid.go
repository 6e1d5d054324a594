package core

import (
	"fmt"
	"sort"

	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/trace"
)

// GridEntry is one (technique, feature set) cell of a model-search grid.
type GridEntry struct {
	Tech models.Technique
	Spec models.FeatureSpec
	CV   *CVResult
	// Skipped explains why a combination was not evaluated (e.g. the
	// quadratic technique with the single-feature CPU set).
	Skipped string
}

// Label returns the paper-style cell code, e.g. "QC" for quadratic with
// cluster features.
func (g GridEntry) Label() string { return g.Tech.Short() + g.Spec.Label() }

// DefaultSpecs builds the paper's feature-set axis: CPU-utilization-only,
// the cluster-specific set, the general set, and the cluster set with the
// lagged-frequency extension (Table IV's "CP").
func DefaultSpecs(clusterFeatures, generalFeatures []string) []models.FeatureSpec {
	specs := []models.FeatureSpec{
		models.CPUOnlySpec(),
		ClusterSpec(clusterFeatures),
	}
	if len(generalFeatures) > 0 {
		specs = append(specs, GeneralSpec(generalFeatures))
	}
	cp := ClusterSpec(clusterFeatures)
	cp.LagFreq = true
	specs = append(specs, cp)
	return specs
}

// EvaluateGrid cross-validates every technique x feature-set combination
// on one workload's traces, skipping combinations the paper also skips
// (quadratic and switching need multiple features; switching needs the
// frequency counter). Cells are evaluated concurrently — each cell's
// cross-validation is independent and deterministic — and entries appear
// in deterministic axis order regardless of completion order.
func EvaluateGrid(traces []*trace.Trace, techs []models.Technique, specs []models.FeatureSpec) ([]GridEntry, error) {
	out := make([]GridEntry, 0, len(techs)*len(specs))
	for _, tech := range techs {
		for _, spec := range specs {
			e := GridEntry{Tech: tech, Spec: spec}
			switch {
			case (tech == models.TechQuadratic || tech == models.TechSwitching) && spec.NumInputs() < 2:
				e.Skipped = "requires multiple features"
			case tech == models.TechSwitching && spec.FreqInputIndex() < 0:
				e.Skipped = "requires the CPU frequency feature"
			}
			out = append(out, e)
		}
	}
	errs := make([]error, len(out))
	mathx.ParallelFor(len(out), func(i int) {
		e := &out[i]
		if e.Skipped != "" {
			return
		}
		cv, err := CrossValidate(traces, CVConfig{Tech: e.Tech, Spec: e.Spec})
		if err != nil {
			errs[i] = fmt.Errorf("core: grid cell %s%s: %w", e.Tech.Short(), e.Spec.Label(), err)
			return
		}
		e.CV = cv
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// BestEntry returns the evaluated grid entry with the lowest fold-average
// cluster DRE.
func BestEntry(entries []GridEntry) (GridEntry, error) {
	best := -1
	for i, e := range entries {
		if e.CV == nil {
			continue
		}
		if best < 0 || e.CV.Cluster.DRE < entries[best].CV.Cluster.DRE {
			best = i
		}
	}
	if best < 0 {
		return GridEntry{}, fmt.Errorf("core: no evaluated entries in grid")
	}
	return entries[best], nil
}

// Series is an aligned actual-vs-predicted cluster power time series, used
// for the paper's trace figures (Fig. 5).
type Series struct {
	Run    int
	Actual []float64
	Pred   []float64
}

// PredictSeries fits the configured model on the training run, as a
// cross-validation fold does, and returns the cluster-level prediction
// series for the given test run.
func PredictSeries(traces []*trace.Trace, cfg CVConfig, trainRun, testRun int) (*Series, error) {
	byRun := trace.ByRun(traces)
	if len(byRun[trainRun]) == 0 || len(byRun[testRun]) == 0 {
		return nil, fmt.Errorf("core: missing traces for runs %d/%d", trainRun, testRun)
	}
	cm, err := FitCluster(cfg.Tech, cfg.Spec, byRun[trainRun], maxTrainRows)
	if err != nil {
		return nil, err
	}
	pred, actual, err := cm.PredictCluster(byRun[testRun])
	if err != nil {
		return nil, err
	}
	return &Series{Run: testRun, Actual: actual, Pred: pred}, nil
}

// StrawmanSeries reproduces the prior-work baseline the paper contrasts in
// Fig. 5: a linear, CPU-utilization-only model fitted on a single machine
// of the training run, scaled up by the machine count. It ignores machine
// variability and nonlinearity, and cannot reach the top of the cluster
// power range.
func StrawmanSeries(traces []*trace.Trace, trainRun, testRun int) (*Series, error) {
	byRun := trace.ByRun(traces)
	train := byRun[trainRun]
	test := byRun[testRun]
	if len(train) == 0 || len(test) == 0 {
		return nil, fmt.Errorf("core: missing traces for runs %d/%d", trainRun, testRun)
	}
	// Deterministic "first" machine: lowest machine ID.
	sort.Slice(train, func(i, j int) bool { return train[i].MachineID < train[j].MachineID })
	one := trace.Subsample(train[0], trainStep)
	mm, err := models.FitMachineModel(models.TechLinear, []*trace.Trace{one}, models.CPUOnlySpec(), models.FitOptions{})
	if err != nil {
		return nil, err
	}
	sort.Slice(test, func(i, j int) bool { return test[i].MachineID < test[j].MachineID })
	n := test[0].Len()
	s := &Series{Run: testRun, Actual: make([]float64, n), Pred: make([]float64, n)}
	// The strawman predicts cluster power as N x f(one machine's
	// counters); actual is the true cluster sum.
	var ref *trace.Trace
	for _, t := range test {
		if t.MachineID == train[0].MachineID {
			ref = t
		}
		if t.Len() != n {
			return nil, fmt.Errorf("core: misaligned test traces")
		}
		for i := 0; i < n; i++ {
			s.Actual[i] += t.Power[i]
		}
	}
	if ref == nil {
		ref = test[0]
	}
	pred, err := mm.PredictTrace(ref)
	if err != nil {
		return nil, err
	}
	scale := float64(len(test))
	for i := 0; i < n; i++ {
		s.Pred[i] = pred[i] * scale
	}
	return s, nil
}

// Summarize evaluates a series against the cluster idle power.
func (s *Series) Summarize(clusterIdle float64) (metrics.Summary, error) {
	return metrics.Evaluate(s.Pred, s.Actual, clusterIdle)
}
