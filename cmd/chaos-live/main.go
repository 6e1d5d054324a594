// chaos-live runs the whole online loop against a live simulated cluster:
// train a model on the first workload, then stream a day-in-the-life
// sequence of jobs through the predictor, printing per-minute power
// summaries, drift alarms when the workload mix leaves the trained
// regime, and retrain events that restore accuracy.
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

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/online"
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
	retrainer, err := online.NewRetrainer(seq[0].Names, 4000)
	if err != nil {
		return err
	}

	ids := make([]string, len(seq))
	for k, tr := range seq {
		ids[k] = tr.MachineID
	}

	// Fault-injection harness: a deterministic injector over the scenario
	// plus one resilient collector (retry/backoff/timeout + breaker) per
	// machine, all sharing the sim clock.
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
		if degraded, err = online.NewDegradedPredictor(predictor, ids, online.DegradedConfig{}); err != nil {
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
	clock := faults.NewClock()
	var drifted bool
	var driftCount, retrainCount, skippedSeconds int
	var minuteErr, minuteActual, minuteEst float64
	minuteCoverage := 1.0
	perMachineMinute := map[string]float64{}
	for i := 0; i < n; i++ {
		t := clock.Tick()
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

		var estWatts float64
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
		} else {
			if len(samples) == 0 {
				// Every collector failed this second; without degraded
				// mode there is nothing to hold an estimate with.
				skippedSeconds++
				continue
			}
			est, err := predictor.Step(samples)
			if err != nil {
				if inj != nil {
					// All surviving samples were corrupt — an injected
					// data fault, not a program error.
					skippedSeconds++
					continue
				}
				return err
			}
			estWatts = est.ClusterWatts
		}

		// Labels and residuals only exist while the meter is attached.
		if meterOK {
			for k := range samples {
				if err := retrainer.Add(samples[k], meterWatts[k]); err != nil {
					return err
				}
			}
		}
		minuteErr += math.Abs(estWatts - clusterActual)
		minuteActual += clusterActual
		minuteEst += estWatts
		if i%60 == 59 {
			if err := em.event("estimate",
				fmt.Sprintf("t=%4ds  cluster %6.1f W  mean abs err %5.2f W  residual %.1fx baseline",
					i+1, minuteActual/60, minuteErr/60, monitor.EWMA()),
				map[string]any{
					"t_s": i + 1, "cluster_w": round2(minuteActual / 60),
					"mean_abs_err_w": round2(minuteErr / 60),
					"residual_x":     round2(monitor.EWMA()),
				}); err != nil {
				return err
			}
			if degraded != nil {
				machines := make(map[string]any, len(ids))
				for _, id := range ids {
					machines[id] = round2(perMachineMinute[id] / 60)
				}
				if err := em.event("degraded_estimate",
					fmt.Sprintf("t=%4ds  est %6.1f W  coverage %.2f", i+1, minuteEst/60, minuteCoverage),
					map[string]any{
						"t_s": i + 1, "est_w": round2(minuteEst / 60),
						"coverage": minuteCoverage, "machines": machines,
					}); err != nil {
					return err
				}
				minuteCoverage = 1
				perMachineMinute = map[string]float64{}
			}
			minuteErr, minuteActual, minuteEst = 0, 0, 0
		}
		// Residual monitoring is only meaningful when the meter is
		// attached and every machine contributed a fresh sample —
		// comparing a partial estimate against full metered power would
		// raise false drift alarms during outages.
		if meterOK && fullCoverage && monitor.Observe(estWatts, clusterActual) && !drifted {
			drifted = true
			driftCount++
			if err := em.event("drift",
				fmt.Sprintf("t=%4ds  *** DRIFT: residual %.1fx baseline — scheduling retrain",
					i, monitor.EWMA()),
				map[string]any{"t_s": i, "residual_x": round2(monitor.EWMA())}); err != nil {
				return err
			}
		}
		// Retrain once enough post-drift samples are buffered.
		if drifted && i%120 == 119 {
			cm2, err := retrainer.Retrain(models.TechQuadratic, spec)
			if err != nil {
				return err
			}
			// The degraded wrapper predicts through the same predictor,
			// so one rebind serves both paths.
			if err := predictor.SetModel(cm2); err != nil {
				return err
			}
			monitor.Reset()
			drifted = false
			retrainCount++
			if err := em.event("retrain",
				fmt.Sprintf("t=%4ds  *** retrained on %d buffered seconds; monitor reset",
					i, retrainer.Buffered(seq[0].MachineID)),
				map[string]any{"t_s": i, "buffered_s": retrainer.Buffered(seq[0].MachineID)}); err != nil {
				return err
			}
		}
	}
	if err := em.event("complete", "stream complete",
		map[string]any{"seconds": n, "drift_alarms": driftCount, "retrains": retrainCount,
			"skipped_s": skippedSeconds}); err != nil {
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
