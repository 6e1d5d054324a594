package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/trace"
)

// multiWorkloadRows caps the pooled training rows of the models fitted on
// several workloads at once (MultiWorkload, Generality), for fitting cost.
const multiWorkloadRows = 2400

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

	// Training set: run 0 of every workload; test: all other runs of
	// every workload.
	var train []*trace.Trace
	testByWorkload := map[string][][]*trace.Trace{}
	for _, wl := range s.Cfg.Workloads {
		traces := ds.ByWorkload[wl]
		byRun := trace.ByRun(traces)
		runs := trace.Runs(traces)
		train = append(train, byRun[runs[0]]...)
		for _, r := range runs[1:] {
			testByWorkload[wl] = append(testByWorkload[wl], byRun[r])
		}
	}
	cm, err := core.FitCluster(models.TechQuadratic, spec, train, multiWorkloadRows)
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
			sum, err := core.ScoreRun(cm, rt)
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
