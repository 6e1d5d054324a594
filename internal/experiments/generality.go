package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/trace"
)

// GeneralityResult quantifies §V-C's caveat: the multi-workload model is
// validated on the workloads it was built for, not "any and all
// workloads". It reports the single multi-workload model's DRE on unseen
// applications next to its DRE on the training mix.
type GeneralityResult struct {
	Platform string
	// TrainedMix is the model's fold-average DRE on held-out runs of the
	// training workloads.
	TrainedMix float64
	// Unseen maps each unseen workload to the model's DRE there.
	Unseen map[string]float64
	// Retrained maps each unseen workload to the DRE after adding one of
	// its runs to the training pool — the paper's prescribed remedy
	// ("generate new workload-specific or multi-workload power models").
	Retrained map[string]float64
}

// Generality trains a single quadratic model on the configured workloads
// and confronts it with workloads outside that mix (IndexUpdate,
// Analytics), then shows recovery after retraining with one run of each.
func (s *Suite) Generality(w io.Writer, platform string, unseen []string) (*GeneralityResult, error) {
	if len(unseen) == 0 {
		unseen = []string{"IndexUpdate", "Analytics"}
	}
	ds, err := s.Dataset(platform)
	if err != nil {
		return nil, err
	}
	fr, err := s.Features(platform)
	if err != nil {
		return nil, err
	}
	spec := core.ClusterSpec(fr.Features)

	// Training pool: run 0 of every configured workload.
	var train []*trace.Trace
	var heldOut []metrics.Summary
	for _, wl := range s.Cfg.Workloads {
		byRun := trace.ByRun(ds.ByWorkload[wl])
		runs := trace.Runs(ds.ByWorkload[wl])
		train = append(train, byRun[runs[0]]...)
	}
	cm, err := core.FitCluster(models.TechQuadratic, spec, train, multiWorkloadRows)
	if err != nil {
		return nil, err
	}
	// Held-out runs of the training mix.
	for _, wl := range s.Cfg.Workloads {
		byRun := trace.ByRun(ds.ByWorkload[wl])
		for _, r := range trace.Runs(ds.ByWorkload[wl])[1:] {
			sum, err := core.ScoreRun(cm, byRun[r])
			if err != nil {
				return nil, err
			}
			heldOut = append(heldOut, sum)
		}
	}

	res := &GeneralityResult{Platform: platform,
		TrainedMix: metrics.Average(heldOut).DRE,
		Unseen:     map[string]float64{}, Retrained: map[string]float64{}}
	section(w, fmt.Sprintf("Generality beyond the training mix (%s, single quadratic model)", platform))
	fmt.Fprintf(w, "training-mix held-out DRE %.1f%%\n", res.TrainedMix*100)

	// Collect the unseen workloads on an identically-seeded cluster.
	uds, err := core.Collect(platform, s.Cfg.Machines, unseen, 2, s.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, wl := range unseen {
		byRun := trace.ByRun(uds.ByWorkload[wl])
		runs := trace.Runs(uds.ByWorkload[wl])
		var sums []metrics.Summary
		for _, r := range runs {
			sum, err := core.ScoreRun(cm, byRun[r])
			if err != nil {
				return nil, err
			}
			sums = append(sums, sum)
		}
		res.Unseen[wl] = metrics.Average(sums).DRE

		// Remedy: retrain with one run of the unseen workload included.
		aug := append(append([]*trace.Trace(nil), train...), byRun[runs[0]]...)
		cm2, err := core.FitCluster(models.TechQuadratic, spec, aug, multiWorkloadRows)
		if err != nil {
			return nil, err
		}
		sum, err := core.ScoreRun(cm2, byRun[runs[len(runs)-1]])
		if err != nil {
			return nil, err
		}
		res.Retrained[wl] = sum.DRE
		fmt.Fprintf(w, "%-12s unseen DRE %5.1f%%  -> after retraining with one run: %5.1f%%\n",
			wl, res.Unseen[wl]*100, res.Retrained[wl]*100)
	}
	return res, nil
}
