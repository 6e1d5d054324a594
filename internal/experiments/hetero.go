package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/featsel"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/trace"
)

// HeterogeneousResult carries the mixed-cluster composability experiment.
type HeterogeneousResult struct {
	Platforms   []string
	Workload    string
	MeanDRE     float64
	WorstDRE    float64
	PerRunDRE   []float64
	ClusterIdle float64
}

// Heterogeneous reproduces §V-B's composability test: machine models are
// trained on each platform's *homogeneous* cluster, then applied, with no
// refitting, to a mixed Core2+Opteron cluster of twice the size running
// scaled workloads. The paper reports the same worst-case 12% DRE as the
// homogeneous clusters.
func (s *Suite) Heterogeneous(w io.Writer) (*HeterogeneousResult, error) {
	pa, pb := s.PickPlatform("Core2"), s.PickPlatform("Opteron")
	if pa == pb && len(s.Cfg.Platforms) > 1 {
		pa, pb = s.Cfg.Platforms[0], s.Cfg.Platforms[1]
	}
	workload := s.PickWorkload("Sort")

	// Train one machine model per platform on its homogeneous dataset
	// (first run — the same budget a CV fold gets). The platforms select
	// different features, so each is fitted on its own.
	var mms []*models.MachineModel
	for _, p := range []string{pa, pb} {
		ds, err := s.Dataset(p)
		if err != nil {
			return nil, err
		}
		fr, err := s.Features(p)
		if err != nil {
			return nil, err
		}
		runs := trace.Runs(ds.ByWorkload[workload])
		train := trace.ByRun(ds.ByWorkload[workload])[runs[0]]
		cm, err := core.FitCluster(models.TechQuadratic, core.ClusterSpec(fr.Features), train, 0)
		if err != nil {
			return nil, err
		}
		mms = append(mms, cm.ByPlatform[p])
	}
	cm, err := models.NewClusterModel(mms...)
	if err != nil {
		return nil, err
	}

	// Collect the mixed cluster: Machines of each class.
	mixed := make([]string, 0, 2*s.Cfg.Machines)
	for i := 0; i < s.Cfg.Machines; i++ {
		mixed = append(mixed, pa)
	}
	for i := 0; i < s.Cfg.Machines; i++ {
		mixed = append(mixed, pb)
	}
	hds, err := core.CollectHeterogeneous("Hetero", mixed, []string{workload}, s.Cfg.Runs, s.Cfg.Seed+99)
	if err != nil {
		return nil, err
	}
	res := &HeterogeneousResult{Platforms: mixed, Workload: workload, ClusterIdle: hds.ClusterIdle}
	byRun := trace.ByRun(hds.ByWorkload[workload])
	for _, run := range trace.Runs(hds.ByWorkload[workload]) {
		sum, err := core.ScoreRun(cm, byRun[run])
		if err != nil {
			return nil, err
		}
		res.PerRunDRE = append(res.PerRunDRE, sum.DRE)
		res.MeanDRE += sum.DRE
		if sum.DRE > res.WorstDRE {
			res.WorstDRE = sum.DRE
		}
	}
	res.MeanDRE /= float64(len(res.PerRunDRE))

	section(w, fmt.Sprintf("Heterogeneous cluster (%d x %s + %d x %s, %s)",
		s.Cfg.Machines, pa, s.Cfg.Machines, pb, workload))
	fmt.Fprintf(w, "machine models trained on homogeneous clusters, applied unchanged\n")
	fmt.Fprintf(w, "mean cluster DRE %.1f%%, worst %.1f%% (paper: worst-case 12%%)\n",
		res.MeanDRE*100, res.WorstDRE*100)
	return res, nil
}

// Overhead reports the collector's measured per-sample cost as a fraction
// of the 1 Hz sampling interval for every collected dataset (paper: < 1%
// CPU on a mobile-class machine).
func (s *Suite) Overhead(w io.Writer) (map[string]float64, error) {
	out := map[string]float64{}
	section(w, "Collector overhead (fraction of the 1 s sampling interval)")
	for _, p := range s.Cfg.Platforms {
		ds, err := s.Dataset(p)
		if err != nil {
			return nil, err
		}
		out[p] = ds.CollectorOverhead
		fmt.Fprintf(w, "%-9s %.4f%%\n", p, ds.CollectorOverhead*100)
	}
	return out, nil
}

// AblationPooling compares the paper's pooled fitting strategy (one model
// from all machines' data) against fitting on a single machine and
// applying it cluster-wide — quantifying why Algorithm 1 pools.
func (s *Suite) AblationPooling(w io.Writer, platform, workload string) (pooledDRE, singleDRE float64, err error) {
	ds, err := s.Dataset(platform)
	if err != nil {
		return 0, 0, err
	}
	fr, err := s.Features(platform)
	if err != nil {
		return 0, 0, err
	}
	traces := ds.ByWorkload[workload]
	spec := core.ClusterSpec(fr.Features)
	cfg := core.CVConfig{Tech: models.TechQuadratic, Spec: spec}
	cv, err := core.CrossValidate(traces, cfg)
	if err != nil {
		return 0, 0, err
	}
	pooledDRE = cv.Cluster.DRE

	// Single-machine variant: train on machine 0's data only.
	runs := trace.Runs(traces)
	byRun := trace.ByRun(traces)
	var sums []metrics.Summary
	for _, trainRun := range runs {
		train := byRun[trainRun]
		var one *trace.Trace
		for _, t := range train {
			if one == nil || t.MachineID < one.MachineID {
				one = t
			}
		}
		cm, err := core.FitCluster(models.TechQuadratic, spec, []*trace.Trace{one}, 0)
		if err != nil {
			return 0, 0, err
		}
		for _, testRun := range runs {
			if testRun == trainRun {
				continue
			}
			sum, err := core.ScoreRun(cm, byRun[testRun])
			if err != nil {
				return 0, 0, err
			}
			sums = append(sums, sum)
		}
	}
	singleDRE = metrics.Average(sums).DRE

	section(w, fmt.Sprintf("Ablation: pooled vs single-machine fitting (%s, %s)", platform, workload))
	fmt.Fprintf(w, "pooled (paper)  DRE %.1f%%\nsingle machine  DRE %.1f%%\n",
		pooledDRE*100, singleDRE*100)
	return pooledDRE, singleDRE, nil
}

// AblationCorrThreshold sweeps the step-1 correlation threshold of
// Algorithm 1 (the paper did a sensitivity analysis around 0.95) and
// reports how many features survive to the final set.
func (s *Suite) AblationCorrThreshold(w io.Writer, platform string, thresholds []float64) (map[float64]int, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0.80, 0.90, 0.95, 0.99}
	}
	ds, err := s.Dataset(platform)
	if err != nil {
		return nil, err
	}
	out := map[float64]int{}
	section(w, fmt.Sprintf("Ablation: correlation-pruning threshold (%s)", platform))
	for _, th := range thresholds {
		res, err := featsel.SelectCluster(ds.AllTraces(), ds.Registry, featsel.Options{CorrThreshold: th})
		if err != nil {
			return nil, err
		}
		out[th] = len(res.Features)
		fmt.Fprintf(w, "|r| > %.2f  ->  %2d features after step 1: %3d\n",
			th, len(res.Features), res.Funnel.AfterCorr)
	}
	return out, nil
}
