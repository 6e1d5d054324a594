// Quickstart: the minimal CHAOS workflow — simulate an instrumented
// cluster, select features with Algorithm 1, fit a quadratic power model,
// and report its accuracy under the DRE metric.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/models"
)

func main() {
	// 1. Collect: a 3-machine mobile-class (Core 2 Duo) cluster runs the
	//    CPU-bound Prime workload three times, logging OS counters and
	//    metered wall power at 1 Hz.
	ds, err := core.Collect("Core2", 3, []string{"Prime"}, 3, 42)
	if err != nil {
		log.Fatal(err)
	}
	traces := ds.ByWorkload["Prime"]
	fmt.Printf("collected %d machine traces, %d counters each\n",
		len(traces), ds.Registry.Len())

	// 2. Select: Algorithm 1 reduces ~250 candidate counters to a small
	//    cluster-specific feature set.
	sel, err := ds.SelectFeatures()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Algorithm 1 kept %d features (threshold %.0f):\n", len(sel.Features), sel.Threshold)
	for _, f := range sel.Features {
		fmt.Printf("  %s\n", f)
	}

	// 3. Fit + evaluate: run-based cross-validation of the quadratic
	//    model (MARS with degree-2 interactions) on the selected features.
	cv, err := core.CrossValidate(traces, core.CVConfig{
		Tech: models.TechQuadratic,
		Spec: core.ClusterSpec(sel.Features),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncluster model accuracy (5-fold style, train/test from separate runs):\n")
	fmt.Printf("  dynamic range error (DRE): %.1f%%\n", cv.Cluster.DRE*100)
	fmt.Printf("  rMSE:                      %.2f W\n", cv.Cluster.RMSE)
	fmt.Printf("  %% of average power:        %.2f%%\n", cv.Cluster.PctErr*100)
	fmt.Printf("  machine median rel. error: %.2f%%\n", cv.Machine.MedRelE*100)
	if cv.Cluster.DRE < 0.12 {
		fmt.Println("within the paper's 12% DRE bound ✓")
	}
}
