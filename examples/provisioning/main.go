// Provisioning: power provisioning for a rack budget (the Fan et al.
// warehouse-computer use case the paper's §I motivates). A CHAOS model
// predicts each workload's realistic peak cluster power; provisioning
// against modeled peaks instead of nameplate ratings packs substantially
// more machines under the same breaker — the less accurate the model, the
// larger the guard band and the fewer the machines.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/models"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	const platform = "XeonSATA"
	spec, err := sim.Platform(platform)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := core.Collect(platform, 3, []string{"Sort", "PageRank"}, 2, 41)
	if err != nil {
		log.Fatal(err)
	}
	sel, err := ds.SelectFeatures()
	if err != nil {
		log.Fatal(err)
	}

	// Fit the multi-workload model on run 0 of both workloads.
	var train []*trace.Trace
	for _, wl := range []string{"Sort", "PageRank"} {
		for _, t := range trace.ByRun(ds.ByWorkload[wl])[0] {
			train = append(train, trace.Subsample(t, 2))
		}
	}
	mm, err := models.FitMachineModel(models.TechQuadratic, train,
		core.ClusterSpec(sel.Features), models.FitOptions{MaxKnots: 8})
	if err != nil {
		log.Fatal(err)
	}

	// Modeled per-machine peak: the 99.5th percentile of predictions plus
	// a guard band from the model's held-out error.
	var preds, errs []float64
	for _, wl := range []string{"Sort", "PageRank"} {
		for _, t := range trace.ByRun(ds.ByWorkload[wl])[1] {
			p, err := mm.PredictTrace(t)
			if err != nil {
				log.Fatal(err)
			}
			preds = append(preds, p...)
			for i := range p {
				errs = append(errs, t.Power[i]-p[i])
			}
		}
	}
	peak := mathx.Percentile(preds, 99.5)
	guard := 2 * mathx.StdDev(errs)
	provisioned := peak + guard

	const rackBudgetW = 8000
	nameplate := spec.MaxPowerW // what a spec-sheet provisioner must assume
	fmt.Printf("platform %s: nameplate max %.0f W, modeled workload peak %.1f W (+%.1f W guard)\n",
		platform, nameplate, peak, guard)
	fmt.Printf("rack budget %d W:\n", rackBudgetW)
	fmt.Printf("  nameplate provisioning: %d machines\n", int(rackBudgetW/nameplate))
	fmt.Printf("  model-based provisioning: %d machines\n", int(rackBudgetW/provisioned))

	// Safety check on the measured data: how often would the model-based
	// rack exceed its budget if filled to the computed count?
	n := int(rackBudgetW / provisioned)
	var over int
	var total int
	for _, wl := range []string{"Sort", "PageRank"} {
		rt := trace.ByRun(ds.ByWorkload[wl])[1]
		for i := 0; i < rt[0].Len(); i++ {
			// Scale the 3 measured machines to the provisioned count.
			sum := 0.0
			for _, t := range rt {
				sum += t.Power[i]
			}
			est := sum / float64(len(rt)) * float64(n)
			total++
			if est > rackBudgetW {
				over++
			}
		}
	}
	fmt.Printf("  budget exceedances with %d machines: %d of %d seconds (%.2f%%)\n",
		n, over, total, 100*float64(over)/float64(total))
}
