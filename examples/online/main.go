// Online: streaming cluster power estimation with drift detection and
// automatic retraining — the deployment loop CHAOS models exist for. A
// quadratic model trained on the CPU-bound Prime workload monitors a live
// cluster; when the cluster switches to the I/O-heavy Sort workload the
// residual monitor raises a drift alarm, the framework retrains from the
// buffered samples, and accuracy recovers.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/online"
	"repro/internal/trace"
)

func main() {
	ds, err := core.Collect("Core2", 3, []string{"Prime", "Sort"}, 2, 17)
	if err != nil {
		log.Fatal(err)
	}
	sel, err := ds.SelectFeatures()
	if err != nil {
		log.Fatal(err)
	}
	spec := core.ClusterSpec(sel.Features)

	// Train on Prime run 0.
	cm, err := core.FitCluster(models.TechQuadratic, spec, trace.ByRun(ds.ByWorkload["Prime"])[0], 0)
	if err != nil {
		log.Fatal(err)
	}

	// Baseline error on held-out Prime.
	holdout := trace.ByRun(ds.ByWorkload["Prime"])[1]
	baseline := heldOutRMSE(cm, holdout)
	fmt.Printf("model trained on Prime: held-out rMSE %.2f W\n", baseline)

	predictor, err := online.NewPredictor(cm, holdout[0].Names)
	if err != nil {
		log.Fatal(err)
	}
	monitor, err := online.NewMonitor(baseline, 16)
	if err != nil {
		log.Fatal(err)
	}
	retrainer, err := online.NewRetrainer(holdout[0].Names, 4000)
	if err != nil {
		log.Fatal(err)
	}

	// Stream: first held-out Prime (in regime), then Sort (new regime).
	// After a drift alarm we keep streaming — the buffer must fill with
	// the *new* regime before retraining is worthwhile.
	stream := func(name string, ts []*trace.Trace) int {
		n := ts[0].Len()
		driftAt := -1
		for i := 0; i < n; i++ {
			var samples []online.Sample
			var clusterActual float64
			for _, t := range ts {
				samples = append(samples, online.Sample{
					MachineID: t.MachineID, Platform: t.Platform, Counters: t.X.Row(i)})
				clusterActual += t.Power[i]
			}
			est, err := predictor.Step(samples)
			if err != nil {
				log.Fatal(err)
			}
			for k, t := range ts {
				if err := retrainer.Add(samples[k], t.Power[i]); err != nil {
					log.Fatal(err)
				}
			}
			if monitor.Observe(est.ClusterWatts, clusterActual) && driftAt < 0 {
				driftAt = i
				fmt.Printf("  DRIFT detected %ds into %s (EWMA residual %.1fx baseline); continuing to buffer the new regime\n",
					i, name, monitor.EWMA())
			}
		}
		if driftAt < 0 {
			fmt.Printf("  %s streamed %ds: no drift (EWMA residual %.1fx baseline)\n",
				name, n, monitor.EWMA())
		}
		return driftAt
	}

	fmt.Println("streaming held-out Prime...")
	if at := stream("Prime", holdout); at >= 0 {
		log.Fatalf("unexpected drift on the trained workload at %ds", at)
	}
	fmt.Println("cluster switches to Sort...")
	sortRun := trace.ByRun(ds.ByWorkload["Sort"])[0]
	if at := stream("Sort", sortRun); at < 0 {
		log.Fatal("expected drift on the unmodeled workload")
	}

	// Retrain from the buffer and verify recovery on the second Sort run.
	fmt.Println("retraining from buffered samples...")
	cm2, err := retrainer.Retrain(models.TechQuadratic, spec)
	if err != nil {
		log.Fatal(err)
	}
	monitor.Reset()
	sort2 := trace.ByRun(ds.ByWorkload["Sort"])[1]
	fmt.Printf("Sort run 1: stale model rMSE %.2f W, retrained rMSE %.2f W\n",
		heldOutRMSE(cm, sort2), heldOutRMSE(cm2, sort2))
}

// heldOutRMSE is the cluster model's rMSE on one run it was not trained on.
func heldOutRMSE(cm *models.ClusterModel, run []*trace.Trace) float64 {
	pred, actual, err := cm.PredictCluster(run)
	if err != nil {
		log.Fatal(err)
	}
	r, err := metrics.RMSE(pred, actual)
	if err != nil {
		log.Fatal(err)
	}
	return r
}
