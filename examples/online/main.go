// Online: streaming cluster power estimation with drift detection and
// automatic retraining — the deployment loop CHAOS models exist for. A
// quadratic model trained on the CPU-bound Prime workload monitors a live
// cluster; when the cluster switches to the I/O-heavy Sort workload the
// residual monitor raises a drift alarm, the model lifecycle retrains a
// challenger from the metered seconds, promotes it only if it beats the
// serving model on the seconds that arrive after its fit, and accuracy
// recovers. The
// program exits non-zero unless the drift fires and the promoted model
// beats the stale one on a Sort run neither saw.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/online"
	"repro/internal/registry"
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
	// The lifecycle watches the monitor and changes the registry's active
	// version only through its gates; the predictor follows it.
	reg := registry.New()
	if err := reg.Add("prime", cm, registry.Meta{Description: "trained on Prime run 0"}); err != nil {
		log.Fatal(err)
	}
	orch, err := lifecycle.New(reg, monitor, lifecycle.Config{
		Tech: models.TechQuadratic, Spec: spec, Names: holdout[0].Names,
		ProbationSnapshots: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	version := reg.ActiveVersion()
	clock := time.Unix(0, 0)

	// Stream: first held-out Prime (in regime), then Sort (new regime),
	// one lifecycle step per second.
	stream := func(name string, ts []*trace.Trace) int {
		n := ts[0].Len()
		driftAt := -1
		for i := 0; i < n; i++ {
			var samples []online.Sample
			var metered []float64
			var clusterActual float64
			for _, t := range ts {
				samples = append(samples, online.Sample{
					MachineID: t.MachineID, Platform: t.Platform, Counters: t.X.Row(i)})
				metered = append(metered, t.Power[i])
				clusterActual += t.Power[i]
			}
			est, err := predictor.Step(samples)
			if err != nil {
				log.Fatal(err)
			}
			if monitor.Observe(est.ClusterWatts, clusterActual) && driftAt < 0 {
				driftAt = i
				fmt.Printf("  DRIFT detected %ds into %s (EWMA residual %.1fx baseline)\n",
					i, name, monitor.EWMA())
			}
			orch.Ingest(samples, metered, est.ClusterWatts, version)
			clock = clock.Add(time.Second)
			orch.Step(clock)
			if active := reg.Active(); active.Version != version {
				if err := predictor.SetModel(active.Model); err != nil {
					log.Fatal(err)
				}
				version = active.Version
				fmt.Printf("  %ds into %s: lifecycle %s, now serving %s\n",
					i, name, orch.Status().LastVerdict, version)
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
	if at := stream("Sort", trace.ByRun(ds.ByWorkload["Sort"])[0]); at < 0 {
		log.Fatal("expected drift on the unmodeled workload")
	}

	// The model serving at the end must beat the stale one on the second
	// Sort run.
	st := orch.Status()
	fmt.Printf("lifecycle: %d retrains, %d promotions, %d rollbacks; serving %s\n",
		st.Retrains, st.Promotions, st.Rollbacks, version)
	sort2 := trace.ByRun(ds.ByWorkload["Sort"])[1]
	stale, served := heldOutRMSE(cm, sort2), heldOutRMSE(reg.Active().Model, sort2)
	fmt.Printf("Sort run 1: stale model rMSE %.2f W, promoted model rMSE %.2f W\n", stale, served)
	if version == "prime" || served >= stale {
		log.Fatal("the lifecycle did not promote a model that beats the stale one")
	}
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
