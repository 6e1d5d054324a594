package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/trace"
)

// MultiWorkloadResult reports the paper's central premise (Fig. 1): a
// single cluster power model that stays accurate across all workloads at
// once.
type MultiWorkloadResult struct {
	Platform string
	// PerWorkload maps workload -> cluster DRE of the single shared model
	// on that workload's held-out runs.
	PerWorkload map[string]float64
	// Overall is the DRE over all held-out runs of all workloads.
	Overall float64
	// PerWorkloadBest is each workload's own Table IV best DRE, for the
	// cost-of-generality comparison.
	PerWorkloadBest map[string]float64
}

// MultiWorkload trains one quadratic model on pooled training runs from
// every workload and evaluates it per workload: the multi-application
// validity the paper's feature selection is designed for ("pushing the
// model's validity beyond a single application to a group of
// applications", §I).
func (s *Suite) MultiWorkload(w io.Writer, platform string) (*MultiWorkloadResult, error) {
	ds, err := s.Dataset(platform)
	if err != nil {
		return nil, err
	}
	fr, err := s.Features(platform)
	if err != nil {
		return nil, err
	}
	spec := core.ClusterSpec(fr.Features)

	// Training set: run 0 of every workload, subsampled; test: all other
	// runs of every workload.
	var train []*trace.Trace
	testByWorkload := map[string]map[int][]*trace.Trace{}
	for _, wl := range s.Cfg.Workloads {
		traces := ds.ByWorkload[wl]
		byRun := trace.ByRun(traces)
		runs := trace.Runs(traces)
		for _, t := range byRun[runs[0]] {
			train = append(train, trace.Subsample(t, 2))
		}
		testByWorkload[wl] = map[int][]*trace.Trace{}
		for _, r := range runs[1:] {
			testByWorkload[wl][r] = byRun[r]
		}
	}
	mm, err := models.FitMachineModel(models.TechQuadratic, trace.CapRows(train, 2400), spec,
		models.FitOptions{MaxKnots: 8})
	if err != nil {
		return nil, err
	}
	cm, err := models.NewClusterModel(mm)
	if err != nil {
		return nil, err
	}

	res := &MultiWorkloadResult{Platform: platform,
		PerWorkload: map[string]float64{}, PerWorkloadBest: map[string]float64{}}
	var all []metrics.Summary
	section(w, fmt.Sprintf("Single multi-workload cluster model (%s, quadratic, cluster features)", platform))
	for _, wl := range s.Cfg.Workloads {
		var sums []metrics.Summary
		for _, rt := range testByWorkload[wl] {
			pred, actual, err := cm.PredictCluster(rt)
			if err != nil {
				return nil, err
			}
			idle := 0.0
			for _, t := range rt {
				idle += t.IdleWatts
			}
			sum, err := metrics.Evaluate(pred, actual, idle)
			if err != nil {
				return nil, err
			}
			sums = append(sums, sum)
			all = append(all, sum)
		}
		res.PerWorkload[wl] = metrics.Average(sums).DRE
		best, err := s.Best(platform, wl)
		if err != nil {
			return nil, err
		}
		res.PerWorkloadBest[wl] = best.CV.Cluster.DRE
		fmt.Fprintf(w, "%-10s single-model DRE %5.1f%%  (per-workload best %5.1f%%)\n",
			wl, res.PerWorkload[wl]*100, res.PerWorkloadBest[wl]*100)
	}
	res.Overall = metrics.Average(all).DRE
	fmt.Fprintf(w, "overall DRE %.1f%% across %d workloads with ONE model\n",
		res.Overall*100, len(s.Cfg.Workloads))
	return res, nil
}
