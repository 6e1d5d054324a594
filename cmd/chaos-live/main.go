// chaos-live runs the whole online loop against a live simulated cluster:
// train a model on the first workload, then stream a day-in-the-life
// sequence of jobs through the predictor, printing per-minute power
// summaries and drift alarms when the workload mix leaves the trained
// regime. The model lifecycle (internal/lifecycle) steps once per
// simulated second on the metered snapshots: drift triggers a retrain,
// the challenger must beat the serving model on the held-out window to be
// promoted, and a promotion that regresses in probation is rolled back.
// The loop predicts with whichever version the registry has active.
//
// With -listen the process also serves /metrics (Prometheus text format),
// /healthz, and /debug/pprof while streaming; with -json every event is
// emitted as one machine-readable JSON line instead of free-form text.
//
// With -faults the run replays a fault-injection scenario (collector
// drops, latency spikes, NaN/Inf counter corruption, stuck counters,
// meter dropouts, machine crashes — see examples/faults-crashy.json), and
// -degraded turns on degraded-mode estimation: per-machine staleness
// tracking, hold-last-estimate-with-decay, counter imputation, and
// live/stale/imputed/down health states with machine_stale, machine_down,
// machine_recovered, and degraded_estimate events.
//
// Usage:
//
//	chaos-live -platform Core2 -machines 3 -train Prime -stream Prime,Sort,PageRank
//	chaos-live -listen :9090 -json
//	chaos-live -machines 5 -faults examples/faults-crashy.json -degraded -json
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// config collects the run parameters of one chaos-live invocation.
type config struct {
	Platform string
	Machines int
	Train    string
	Stream   []string
	Seed     int64
	Listen   string // "" disables the metrics endpoint
	JSON     bool   // emit JSON event lines instead of human text
	Faults   string // path to a fault scenario JSON; "" disables injection
	Degraded bool   // degraded-mode estimation (staleness, decay, imputation)

	// scenario, when set, overrides Faults (used by tests to inject a
	// scenario without a file).
	scenario *faults.Scenario
	// holdOpen, when set, is called after the stream completes but before
	// the metrics server shuts down, so tests can probe the endpoints
	// without racing the end of the run.
	holdOpen func()
}

func main() {
	var (
		platform  = flag.String("platform", "Core2", "platform class")
		machines  = flag.Int("machines", 3, "machines in the cluster")
		train     = flag.String("train", "Prime", "workload to train on")
		stream    = flag.String("stream", "Prime,Sort", "comma-separated workload sequence to stream")
		seed      = flag.Int64("seed", 7, "simulation seed")
		listen    = flag.String("listen", "", "serve /metrics, /healthz, and pprof on this address (e.g. :9090)")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON event lines instead of text")
		faultsArg = flag.String("faults", "", "fault-injection scenario JSON (canonical example: examples/faults-crashy.json)")
		degraded  = flag.Bool("degraded", false, "degraded-mode estimation: staleness TTL, hold-with-decay, imputation, health states")
	)
	flag.Parse()
	cfg := config{
		Platform: *platform, Machines: *machines, Train: *train,
		Stream: strings.Split(*stream, ","), Seed: *seed,
		Listen: *listen, JSON: *jsonOut,
		Faults: *faultsArg, Degraded: *degraded,
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "chaos-live:", err)
		os.Exit(1)
	}
}

// emitter routes run output either to the human text log or, in -json
// mode, through an obs.EventSink as one JSON line per event.
type emitter struct {
	w    io.Writer
	sink *obs.EventSink // nil in text mode
}

func (e *emitter) event(name, text string, fields map[string]any) error {
	if e.sink != nil {
		return e.sink.Emit(name, fields)
	}
	_, err := fmt.Fprintln(e.w, text)
	return err
}

func run(w io.Writer, cfg config) error {
	em := &emitter{w: w}
	if cfg.JSON {
		em.sink = obs.NewEventSink(w)
	}
	if cfg.Listen != "" {
		obs.RegisterBuildInfo(obs.Default())
		srv, err := obs.Serve(cfg.Listen, obs.Default())
		if err != nil {
			return err
		}
		defer srv.Close()
		if err := em.event("listening",
			fmt.Sprintf("metrics listening on http://%s/metrics", srv.Addr()),
			map[string]any{"addr": srv.Addr()}); err != nil {
			return err
		}
	}

	// Train.
	ds, err := core.Collect(cfg.Platform, cfg.Machines, []string{cfg.Train}, 2, cfg.Seed)
	if err != nil {
		return err
	}
	sel, err := ds.SelectFeatures()
	if err != nil {
		return err
	}
	spec := core.ClusterSpec(sel.Features)
	byRun := trace.ByRun(ds.ByWorkload[cfg.Train])
	cm, err := core.FitCluster(models.TechQuadratic, spec, byRun[0], 0)
	if err != nil {
		return err
	}
	pred, actual, err := cm.PredictCluster(byRun[1])
	if err != nil {
		return err
	}
	baseline, err := metrics.RMSE(pred, actual)
	if err != nil {
		return err
	}
	if err := em.event("train",
		fmt.Sprintf("trained quadratic model on %s (%d features); held-out rMSE %.2f W",
			cfg.Train, len(sel.Features), baseline),
		map[string]any{
			"workload": cfg.Train, "features": len(sel.Features),
			"baseline_rmse_w": round2(baseline), "technique": "quadratic",
		}); err != nil {
		return err
	}

	// Stream the sequence on the same cluster instances the model was
	// trained for (same seed -> same machines; a deployed model monitors
	// the machines it was fitted on).
	cluster, err := telemetry.New(cfg.Platform, cfg.Machines, cfg.Seed)
	if err != nil {
		return err
	}
	seq, err := cluster.RunSequence(cfg.Stream, 20, 3000, 0)
	if err != nil {
		return err
	}
	predictor, err := online.NewPredictor(cm, seq[0].Names)
	if err != nil {
		return err
	}
	monitor, err := online.NewMonitor(baseline, 16)
	if err != nil {
		return err
	}
	// The trained model is the registry's first, active version. The
	// lifecycle watches the monitor's alarm, retrains from the metered
	// snapshots, and changes the active version only through its gates;
	// probation is as long as chaos-serve's default.
	reg := registry.New()
	if err := reg.Add("v1", cm, registry.Meta{Description: "trained on " + cfg.Train}); err != nil {
		return err
	}
	orch, err := lifecycle.New(reg, monitor, lifecycle.Config{
		Tech: models.TechQuadratic, Spec: spec, Names: seq[0].Names,
		ProbationSnapshots: 64, Events: em.sink,
	})
	if err != nil {
		return err
	}
	version := reg.ActiveVersion()

	ids := make([]string, len(seq))
	for k, tr := range seq {
		ids[k] = tr.MachineID
	}

	// Fault-injection harness: a deterministic injector over the scenario
	// plus one resilient collector (retry/backoff/timeout + breaker) per
	// machine, all addressed by the loop's simulated second.
	scen := cfg.scenario
	if scen == nil && cfg.Faults != "" {
		if scen, err = faults.LoadScenario(cfg.Faults); err != nil {
			return err
		}
	}
	var inj *faults.Injector
	var fcols []*faults.Collector
	if scen != nil {
		if inj, err = faults.NewInjector(scen, cfg.Seed); err != nil {
			return err
		}
		fcols = make([]*faults.Collector, len(seq))
		for k, id := range ids {
			if fcols[k], err = faults.NewCollector(id, inj, faults.DefaultRetry(), faults.DefaultBreaker()); err != nil {
				return err
			}
		}
		if err := em.event("faults_enabled",
			fmt.Sprintf("fault injection enabled: scenario %q (%d crashes, %d meter dropouts)",
				scen.Name, len(scen.Crashes), len(scen.MeterDropouts)),
			map[string]any{"scenario": scen.Name,
				"crashes": len(scen.Crashes), "meter_dropouts": len(scen.MeterDropouts)}); err != nil {
			return err
		}
	}
	var degraded *online.DegradedPredictor
	prevHealth := map[string]online.Health{}
	if cfg.Degraded {
		if degraded, err = online.NewDegradedPredictor(predictor, ids); err != nil {
			return err
		}
		for _, id := range ids {
			prevHealth[id] = online.HealthLive
		}
		if err := em.event("degraded_enabled",
			"degraded-mode estimation enabled (staleness TTL, hold-with-decay, imputation)",
			map[string]any{"machines": len(ids)}); err != nil {
			return err
		}
	}

	n := seq[0].Len()
	if err := em.event("stream_start",
		fmt.Sprintf("streaming %s (%d s total)", strings.Join(cfg.Stream, " -> "), n),
		map[string]any{"sequence": cfg.Stream, "seconds": n}); err != nil {
		return err
	}
	var driftCount, skippedSeconds int
	// The minute's sums: metered power over every second, estimates and
	// their errors over the minuteEstimated seconds that had one.
	var minuteErr, minuteActual, minuteEst float64
	var minuteEstimated int
	minuteCoverage := 1.0
	perMachineMinute := map[string]float64{}
	for t := 0; t < n; t++ {
		var samples []online.Sample
		var meterWatts []float64
		var clusterActual float64
		for k, tr := range seq {
			clusterActual += tr.Power[t]
			row := tr.X.Row(t)
			if inj != nil {
				res, err := fcols[k].Collect(t, func() ([]float64, error) {
					// Private copy: the injector mutates rows in place.
					return append([]float64(nil), tr.X.Row(t)...), nil
				})
				if err != nil {
					return err
				}
				if !res.OK {
					continue
				}
				row = res.Row
			}
			samples = append(samples, online.Sample{
				MachineID: tr.MachineID, Platform: tr.Platform, Counters: row})
			meterWatts = append(meterWatts, tr.Power[t])
		}
		meterOK := inj == nil || inj.MeterAvailable(t)

		estWatts, estimated := 0.0, true
		fullCoverage := len(samples) == len(seq)
		if degraded != nil {
			dest, err := degraded.Step(t, samples)
			if err != nil {
				return err
			}
			estWatts = dest.ClusterWatts
			fullCoverage = dest.Coverage == 1
			if dest.Coverage < minuteCoverage {
				minuteCoverage = dest.Coverage
			}
			for id, w := range dest.PerMachine {
				perMachineMinute[id] += w
			}
			if err := emitHealthTransitions(em, t, ids, prevHealth, dest.Health); err != nil {
				return err
			}
		} else if len(samples) == 0 {
			// Every collector failed this second; without degraded mode
			// there is nothing to hold an estimate with.
			estimated = false
		} else if est, err := predictor.Step(samples); err == nil {
			estWatts = est.ClusterWatts
			// Step skips a corrupt sample; the sum then misses a machine.
			fullCoverage = len(est.PerMachine) == len(seq)
		} else if inj != nil {
			// All surviving samples were corrupt — an injected data
			// fault, not a program error.
			estimated = false
		} else {
			return err
		}

		minuteActual += clusterActual
		if estimated {
			minuteErr += math.Abs(estWatts - clusterActual)
			minuteEst += estWatts
			minuteEstimated++
		} else {
			skippedSeconds++
		}
		if t%60 == 59 {
			// A minute in which no second had an estimate has no error to
			// report: the text says so and the event leaves the field out.
			errText := "mean abs err   n/a"
			fields := map[string]any{
				"t_s": t + 1, "cluster_w": round2(minuteActual / 60),
				"residual_x": round2(monitor.EWMA()),
			}
			if minuteEstimated > 0 {
				meanErr := minuteErr / float64(minuteEstimated)
				errText = fmt.Sprintf("mean abs err %5.2f W", meanErr)
				fields["mean_abs_err_w"] = round2(meanErr)
			}
			if err := em.event("estimate",
				fmt.Sprintf("t=%4ds  cluster %6.1f W  %s  residual %.1fx baseline",
					t+1, minuteActual/60, errText, monitor.EWMA()),
				fields); err != nil {
				return err
			}
			if degraded != nil {
				machines := make(map[string]any, len(ids))
				for _, id := range ids {
					machines[id] = round2(perMachineMinute[id] / 60)
				}
				if err := em.event("degraded_estimate",
					fmt.Sprintf("t=%4ds  est %6.1f W  coverage %.2f", t+1, minuteEst/60, minuteCoverage),
					map[string]any{
						"t_s": t + 1, "est_w": round2(minuteEst / 60),
						"coverage": minuteCoverage, "machines": machines,
					}); err != nil {
					return err
				}
				minuteCoverage = 1
				perMachineMinute = map[string]float64{}
			}
			minuteErr, minuteActual, minuteEst, minuteEstimated = 0, 0, 0, 0
		}
		// Residuals and labels are only meaningful when the meter is
		// attached and every machine's fresh sample is in the estimate —
		// comparing a partial estimate against full metered power would
		// raise false drift alarms during outages.
		if estimated && meterOK && fullCoverage {
			alarmed := monitor.Drifted()
			if monitor.Observe(estWatts, clusterActual) && !alarmed {
				driftCount++
				if err := em.event("drift",
					fmt.Sprintf("t=%4ds  *** DRIFT: residual %.1fx baseline", t, monitor.EWMA()),
					map[string]any{"t_s": t, "residual_x": round2(monitor.EWMA())}); err != nil {
					return err
				}
			}
			orch.Ingest(samples, meterWatts, estWatts, version)
		}
		// One lifecycle step per simulated second; the predictor follows
		// the registry. The degraded wrapper predicts through the same
		// predictor, so one rebind serves both paths.
		orch.Step(time.Unix(int64(t), 0))
		if active := reg.Active(); active.Version != version {
			if err := predictor.SetModel(active.Model); err != nil {
				return err
			}
			version = active.Version
			// In -json mode the lifecycle's own events tell the swap.
			if em.sink == nil {
				if _, err := fmt.Fprintf(w, "t=%4ds  *** %s: now serving %s\n", t, orch.Status().LastVerdict, version); err != nil {
					return err
				}
			}
		}
	}
	st := orch.Status()
	if err := em.event("complete", "stream complete",
		map[string]any{"seconds": n, "drift_alarms": driftCount, "retrains": st.Retrains,
			"promotions": st.Promotions, "skipped_s": skippedSeconds}); err != nil {
		return err
	}
	if cfg.holdOpen != nil {
		cfg.holdOpen()
	}
	return nil
}

// emitHealthTransitions emits one event per machine whose degraded-mode
// health changed this second: machine_stale, machine_down, or (from
// stale/down back to a fresh sample) machine_recovered.
func emitHealthTransitions(em *emitter, t int, ids []string, prev map[string]online.Health, cur map[string]online.Health) error {
	for _, id := range ids {
		h, ph := cur[id], prev[id]
		if h == ph {
			continue
		}
		prev[id] = h
		fields := map[string]any{"t_s": t, "machine": id, "from": string(ph), "to": string(h)}
		switch h {
		case online.HealthStale:
			if err := em.event("machine_stale",
				fmt.Sprintf("t=%4ds  machine %s STALE (holding last estimate with decay)", t, id),
				fields); err != nil {
				return err
			}
		case online.HealthDown:
			if err := em.event("machine_down",
				fmt.Sprintf("t=%4ds  *** machine %s DOWN (silent past staleness TTL)", t, id),
				fields); err != nil {
				return err
			}
		case online.HealthLive, online.HealthImputed:
			if ph == online.HealthDown || ph == online.HealthStale {
				if err := em.event("machine_recovered",
					fmt.Sprintf("t=%4ds  machine %s RECOVERED (%s)", t, id, h),
					fields); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// round2 keeps event payloads readable (two decimals is plenty for watts).
func round2(v float64) float64 { return math.Round(v*100) / 100 }
