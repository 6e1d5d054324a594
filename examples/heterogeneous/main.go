// Heterogeneous: composing cluster power models for mixed clusters
// "essentially for free" (paper §V-B). Machine models are trained on small
// homogeneous clusters, then summed per Eq. 5 over a larger mixed cluster
// they have never seen — including machines whose individual power
// multipliers differ from the training machines'.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/trace"
)

func main() {
	const workload = "Sort"

	// Train one machine model per platform on its own homogeneous cluster.
	var machineModels []*models.MachineModel
	for _, platform := range []string{"Core2", "Opteron"} {
		ds, err := core.Collect(platform, 3, []string{workload}, 2, 11)
		if err != nil {
			log.Fatal(err)
		}
		sel, err := ds.SelectFeatures()
		if err != nil {
			log.Fatal(err)
		}
		cm, err := core.FitCluster(models.TechQuadratic, core.ClusterSpec(sel.Features),
			ds.ByWorkload[workload], 0)
		if err != nil {
			log.Fatal(err)
		}
		machineModels = append(machineModels, cm.ByPlatform[platform])
		fmt.Printf("trained %s machine model on %d features\n", platform, len(sel.Features))
	}
	cm, err := models.NewClusterModel(machineModels...)
	if err != nil {
		log.Fatal(err)
	}

	// Apply, unchanged, to a 6-machine mixed cluster (different machine
	// instances, different scheduler seed, scaled data).
	mixed, err := core.CollectHeterogeneous("Hetero",
		[]string{"Core2", "Core2", "Core2", "Opteron", "Opteron", "Opteron"},
		[]string{workload}, 2, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmixed cluster idle %.0f W\n", mixed.ClusterIdle)
	for _, run := range trace.Runs(mixed.ByWorkload[workload]) {
		sum, err := core.ScoreRun(cm, trace.ByRun(mixed.ByWorkload[workload])[run])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run %d: cluster DRE %.1f%% (rMSE %.1f W over %d samples)\n",
			run, sum.DRE*100, sum.RMSE, sum.N)
	}
	fmt.Println("\nNo refitting was needed for the mixed cluster: Eq. 5 composes")
	fmt.Println("per-machine predictions, dispatching each machine to its")
	fmt.Println("platform's model.")
}
