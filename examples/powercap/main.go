// Powercap: model-based cluster power capping, one of the paper's
// motivating applications (§I, §V-D). A CHAOS model predicts cluster power
// online from OS counters; the capping controller compares the prediction
// plus a DRE-derived guard band against the budget. The example
// quantifies what the paper argues: a less accurate model forces a more
// conservative guard band and strands more power.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/models"
	"repro/internal/trace"
)

func main() {
	ds, err := core.Collect("Opteron", 3, []string{"PageRank"}, 3, 7)
	if err != nil {
		log.Fatal(err)
	}
	traces := ds.ByWorkload["PageRank"]
	sel, err := ds.SelectFeatures()
	if err != nil {
		log.Fatal(err)
	}

	// Two candidate online models: the CHAOS quadratic model on selected
	// features, and the prior-work linear CPU-only baseline.
	candidates := []core.CVConfig{
		{Tech: models.TechQuadratic, Spec: core.ClusterSpec(sel.Features)},
		{Tech: models.TechLinear, Spec: models.CPUOnlySpec()},
	}

	runs := trace.Runs(traces)
	trainRun, testRun := runs[0], runs[1]
	byRun := trace.ByRun(traces)
	_, actual, _ := sumActual(byRun[testRun])
	budget := mathx.Percentile(actual, 90) // cap at the 90th percentile

	fmt.Printf("cluster power budget: %.0f W\n\n", budget)
	for _, cfg := range candidates {
		s, err := core.PredictSeries(traces, cfg, trainRun, testRun)
		if err != nil {
			log.Fatal(err)
		}
		sum, err := s.Summarize(ds.ClusterIdle)
		if err != nil {
			log.Fatal(err)
		}
		// Guard band: 2x the model's RMSE. A capping controller throttles
		// whenever prediction + guard exceeds the budget.
		guard := 2 * sum.RMSE
		var violations, throttled, strandedW int
		for i := range s.Pred {
			capped := s.Pred[i]+guard > budget
			if capped {
				throttled++
				if s.Actual[i] < budget {
					// Throttled although real power was under budget:
					// power stranded by model error.
					strandedW += int(budget - s.Actual[i])
				}
			} else if s.Actual[i] > budget {
				violations++ // budget exceeded without the controller noticing
			}
		}
		n := len(s.Pred)
		fmt.Printf("%s model (%s features):\n", cfg.Tech, cfg.Spec.Name)
		fmt.Printf("  DRE %.1f%%, rMSE %.2f W -> guard band %.1f W\n", sum.DRE*100, sum.RMSE, guard)
		fmt.Printf("  throttle decisions: %d/%d seconds, undetected violations: %d\n",
			throttled, n, violations)
		fmt.Printf("  stranded power (needless throttling): %d W-seconds\n\n", strandedW)
	}
	fmt.Println("The more accurate model needs a smaller guard band, strands less")
	fmt.Println("power, and still catches budget violations — the paper's argument")
	fmt.Println("for accuracy in model-based capping.")
}

func sumActual(ts []*trace.Trace) (int, []float64, error) {
	n := ts[0].Len()
	out := make([]float64, n)
	for _, t := range ts {
		for i := 0; i < n; i++ {
			out[i] += t.Power[i]
		}
	}
	return n, out, nil
}
