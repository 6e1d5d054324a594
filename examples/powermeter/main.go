// Powermeter: Joulemeter-style per-process power metering (the Kansal et
// al. use case the paper cites in §II). A CHAOS machine model predicts a
// machine's power from OS counters; the attribution layer then splits the
// dynamic part among the worker processes using their per-process
// counters — giving software energy metering with no hardware at all.
package main

import (
	"fmt"
	"log"

	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/trace"
)

func main() {
	ds, err := core.Collect("Opteron", 3, []string{"Sort"}, 2, 29)
	if err != nil {
		log.Fatal(err)
	}
	sel, err := ds.SelectFeatures()
	if err != nil {
		log.Fatal(err)
	}
	spec := core.ClusterSpec(sel.Features)

	var train []*trace.Trace
	for _, t := range trace.ByRun(ds.ByWorkload["Sort"])[0] {
		train = append(train, trace.Subsample(t, 2))
	}
	mm, err := models.FitMachineModel(models.TechQuadratic, train, spec,
		models.FitOptions{MaxKnots: 8})
	if err != nil {
		log.Fatal(err)
	}

	// Attribution weights follow the model's feature categories.
	weights, err := attribution.WeightsFromFeatures(sel.Features, ds.Registry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attribution weights from model features: CPU %.2f, IO %.2f, Mem %.2f, Net %.2f\n\n",
		weights.CPU, weights.IO, weights.Memory, weights.Network)

	// Meter one machine over a held-out run. The synthetic per-process
	// counters (Process(workerN)\...) play the role of the per-VM
	// counters Joulemeter reads.
	target := trace.ByRun(ds.ByWorkload["Sort"])[1][0]
	pred, err := mm.PredictTrace(target)
	if err != nil {
		log.Fatal(err)
	}
	meter := attribution.NewMeter(weights)
	procCols := make(map[string][3]int) // worker -> cpu, io, ws columns
	for w := 0; w < 4; w++ {
		name := fmt.Sprintf("worker%d", w)
		cpu, ok1 := indexOf(target, fmt.Sprintf(`Process(%s)\%% Processor Time`, name))
		io, ok2 := indexOf(target, fmt.Sprintf(`Process(%s)\IO Data Bytes/sec`, name))
		ws, ok3 := indexOf(target, fmt.Sprintf(`Process(%s)\Working Set`, name))
		if !ok1 || !ok2 || !ok3 {
			log.Fatalf("per-process counters for %s missing from the trace", name)
		}
		procCols[name] = [3]int{cpu, io, ws}
	}
	for i := 0; i < target.Len(); i++ {
		var procs []attribution.ProcessActivity
		for name, cols := range procCols {
			procs = append(procs, attribution.ProcessActivity{
				Name:         name,
				CPUPercent:   target.X.At(i, cols[0]),
				IOBytes:      target.X.At(i, cols[1]),
				MemoryBytes:  target.X.At(i, cols[2]),
				NetworkBytes: target.X.At(i, cols[1]) * 0.5,
			})
		}
		if err := meter.Step(pred[i], target.IdleWatts, procs); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("per-process energy over %d s on %s (modeled, no hardware):\n", meter.Seconds(), target.MachineID)
	for _, s := range meter.EnergyWh() {
		fmt.Printf("  %-10s %6.2f Wh\n", s.Name, s.Watts)
	}
	osWh, idleWh := meter.OverheadWh()
	fmt.Printf("  %-10s %6.2f Wh\n", "(os)", osWh)
	fmt.Printf("  %-10s %6.2f Wh (static floor)\n", "(idle)", idleWh)
}

func indexOf(t *trace.Trace, name string) (int, bool) {
	for i, n := range t.Names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}
