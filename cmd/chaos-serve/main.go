// chaos-serve is the power-prediction serving daemon: it loads (or
// bootstraps) cluster power models into a versioned registry and serves
// the /v1 estimation API — single-snapshot and batched endpoints, model
// listing, and atomic hot-swap/rollback — on one listener together with
// /metrics, /healthz, and pprof. Requests fan out over a worker pool
// sharded by machine ID, batch inside a short window, and shed with 429
// when the bounded queues fill.
//
// With -lifecycle the daemon closes the loop: labeled traffic feeds
// retrain buffers, drift (or -lifecycle-interval / -lifecycle-samples /
// POST /v1/lifecycle/retrain) triggers a challenger fit off the hot path,
// the orchestrator scores the challenger against the live champion on
// recent labeled traffic, promotes it only if it wins by -promote-margin,
// and rolls it back automatically if it regresses inside the -probation
// window. Poll /v1/lifecycle/status for the state machine.
//
// With -peers the node joins a static fleet and mounts the
// /v1/estimate/cluster scatter-gather front door; -faults injects that
// front door's node faults (peer crash, partition, and slow windows).
//
// Usage:
//
//	chaos-serve -listen :8080 -model model.json
//	chaos-serve -listen :8080 -machines 3 -workloads Prime,Sort -tech quadratic
//	chaos-serve -listen :9461 -peers n1=127.0.0.1:9461 -node-id n1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// config collects one chaos-serve invocation.
type config struct {
	Listen string
	Models []string // model JSON files; empty bootstraps from simulation
	JSON   bool

	// Engine tuning.
	Shards      int
	Queue       int
	BatchWindow time.Duration
	BatchMax    int
	Deadline    time.Duration
	// Overload turns on adaptive admission: per-shard AIMD concurrency
	// limits, strict-priority shedding, and the brownout ladder.
	Overload bool

	// Bootstrap simulation (when no -model given).
	Platform  string
	Machines  int
	Workloads []string
	Seed      int64
	Tech      string

	// Closed-loop model lifecycle.
	Lifecycle         bool
	LifecycleInterval time.Duration
	LifecycleSamples  int
	PromoteMargin     float64
	Probation         int

	// Distributed serving: a static peer fleet with rendezvous
	// partitioning, a scatter-gather front door, and journal replication.
	Peers         string
	NodeID        string
	ReplicateFrom string
	PeerDeadline  time.Duration
	// Faults is a fault scenario for the front door's node faults (peer
	// crash, partition, and slow windows); it needs Peers.
	Faults string
	// Deadline-budget propagation and hedged scatter-gather.
	ClusterDeadline time.Duration
	BudgetMargin    time.Duration
	HedgeRate       float64

	// Durable state: when StateDir is set the registry journals to disk
	// and the lifecycle checkpoints, so a crash or restart resumes the
	// exact pre-crash model state.
	StateDir           string
	CheckpointInterval time.Duration

	// Request tracing: every request carrying a traceparent header is
	// traced; the rest are sampled 1-in-TraceSample.
	TraceSample int
	TraceBuffer int
	TraceSlow   time.Duration

	// Live accuracy/latency SLOs (0 disables each objective).
	SLODre    float64
	SLOP99    time.Duration
	SLOWindow int

	// EventLog tees JSON events into a size-capped rotating file,
	// independent of the console format.
	EventLog         string
	EventLogMaxBytes int64

	// holdOpen, when set, runs after the server is up in place of
	// waiting for a signal — tests probe the API through it.
	holdOpen func(addr string)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseConfig(args, stderr)
	if err != nil {
		return 2
	}
	if err := run(stdout, cfg); err != nil {
		fmt.Fprintln(stderr, "chaos-serve:", err)
		return 1
	}
	return 0
}

// parseConfig turns the command line into a config. Flag errors are
// reported on stderr by the flag package itself.
func parseConfig(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("chaos-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen      = fs.String("listen", "127.0.0.1:8080", "serve the /v1 API, /metrics, /healthz, and pprof on this address")
		model       = fs.String("model", "", "comma-separated model JSON files (versions v1,v2,...); empty trains a bootstrap model from simulation")
		jsonOut     = fs.Bool("json", false, "emit machine-readable JSON event lines")
		shards      = fs.Int("shards", 4, "worker shards (machine-ID hash)")
		queue       = fs.Int("queue", 256, "per-shard bounded queue depth (full = 429)")
		batchWindow = fs.Duration("batch-window", 2*time.Millisecond, "how long a worker widens a batch after the first sample")
		batchMax    = fs.Int("batch-max", 64, "max samples per predictor batch")
		deadline    = fs.Duration("deadline", 250*time.Millisecond, "default per-request deadline")
		platform    = fs.String("platform", "Core2", "bootstrap platform class (when no -model is given)")
		machines    = fs.Int("machines", 3, "bootstrap cluster size (when no -model is given)")
		workloads   = fs.String("workloads", "Prime,Sort", "bootstrap workload sequence (when no -model is given)")
		seed        = fs.Int64("seed", 7, "simulation seed")
		tech        = fs.String("tech", "linear", "bootstrap model technique: linear, piecewise, quadratic, switching")
		overloadOn  = fs.Bool("overload", false, "adaptive overload control: per-shard AIMD admission, strict-priority shedding, brownout ladder")

		lcEnable   = fs.Bool("lifecycle", false, "run the closed-loop model lifecycle: drift-triggered retraining, shadow evaluation, gated promotion")
		lcInterval = fs.Duration("lifecycle-interval", 0, "lifecycle: also retrain every wall-clock period (0 = drift/samples/manual only)")
		lcSamples  = fs.Int("lifecycle-samples", 0, "lifecycle: also retrain every N labeled snapshots (0 = off)")
		lcMargin   = fs.Float64("promote-margin", 0.05, "lifecycle: challenger must beat the champion's dynamic-range error by this fraction to promote")
		lcProbe    = fs.Int("probation", 64, "lifecycle: labeled snapshots the promoted model is watched for before rollback is off the table (0 = no probation)")

		peersArg      = fs.String("peers", "", "static fleet list id=host:port,... — enables distributed serving (requires -node-id naming this node)")
		nodeIDArg     = fs.String("node-id", "", "this node's peer ID within -peers")
		replicateFrom = fs.String("replicate-from", "", "leader base URL (http://host:port) to replicate the model registry from; requires -state-dir")
		peerDeadline  = fs.Duration("peer-deadline", 500*time.Millisecond, "scatter-gather per-peer deadline (a slower peer's machines go missing from the merged answer)")
		clusterDL     = fs.Duration("cluster-deadline", 2*time.Second, "whole-request budget for /v1/estimate/cluster when the client sends no deadline_ms")
		budgetMargin  = fs.Duration("budget-margin", 25*time.Millisecond, "per-hop deadline budget reserved for merging; withheld from every forwarded sub-deadline")
		hedgeRate     = fs.Float64("hedge-rate", 0.1, "hedged scatter-gather: backup calls per primary call the token budget allows (negative disables hedging)")
		faultsArg     = fs.String("faults", "", "fault scenario JSON injecting node faults (peer crash, partition, slow) into the -peers front door; requires -peers")

		stateDir   = fs.String("state-dir", "", "durable state directory: journal model admissions/activations and checkpoint the lifecycle so restarts resume the pre-crash state")
		ckInterval = fs.Duration("checkpoint-interval", 10*time.Second, "how often the lifecycle state checkpoints to -state-dir")

		traceSample = fs.Int("trace-sample", 16, "trace 1 in N requests (traceparent-carrying requests always trace; <0 traces none)")
		traceBuffer = fs.Int("trace-buffer", 256, "recent traces kept for /debug/traces (slow/error traces keep an extra reserved ring)")
		traceSlow   = fs.Duration("trace-slow", 250*time.Millisecond, "traces at least this slow are retained past the recent ring")

		sloDre    = fs.Float64("slo-dre", 0, "accuracy SLO: max rolling cluster dynamic-range error (0 = off)")
		sloP99    = fs.Duration("slo-p99", 0, "latency SLO: max rolling p99 request latency (0 = off)")
		sloWindow = fs.Int("slo-window", 64, "SLO fast-window observation count (slow window is 4x)")

		eventLog      = fs.String("event-log", "", "also write JSON events to this file, rotated by size (keeps one .1 generation)")
		eventLogBytes = fs.Int64("event-log-max-bytes", 8<<20, "rotate -event-log after this many bytes")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{
		Listen: *listen, JSON: *jsonOut,
		Shards: *shards, Queue: *queue, BatchWindow: *batchWindow, BatchMax: *batchMax, Deadline: *deadline,
		Platform: *platform, Machines: *machines, Workloads: strings.Split(*workloads, ","), Seed: *seed, Tech: *tech,
		Overload: *overloadOn, Faults: *faultsArg,
		Peers: *peersArg, NodeID: *nodeIDArg, ReplicateFrom: *replicateFrom, PeerDeadline: *peerDeadline,
		ClusterDeadline: *clusterDL, BudgetMargin: *budgetMargin, HedgeRate: *hedgeRate,
		Lifecycle: *lcEnable, LifecycleInterval: *lcInterval, LifecycleSamples: *lcSamples,
		PromoteMargin: *lcMargin, Probation: *lcProbe,
		StateDir: *stateDir, CheckpointInterval: *ckInterval,
		TraceSample: *traceSample, TraceBuffer: *traceBuffer, TraceSlow: *traceSlow,
		SLODre: *sloDre, SLOP99: *sloP99, SLOWindow: *sloWindow,
		EventLog: *eventLog, EventLogMaxBytes: *eventLogBytes,
	}
	if *model != "" {
		cfg.Models = strings.Split(*model, ",")
	}
	return cfg, nil
}

// emitter mirrors chaos-live: text lines and/or JSON events. Both
// outputs can be live at once — a text console with a JSON -event-log.
type emitter struct {
	w    io.Writer
	sink *obs.EventSink
}

func (e *emitter) event(name, text string, fields map[string]any) error {
	if e.sink != nil {
		if err := e.sink.Emit(name, fields); err != nil {
			return err
		}
	}
	if e.w != nil {
		_, err := fmt.Fprintln(e.w, text)
		return err
	}
	return nil
}

func run(w io.Writer, cfg config) error {
	obs.RegisterBuildInfo(obs.Default())

	if cfg.Peers != "" && cfg.NodeID == "" {
		return fmt.Errorf("-peers requires -node-id naming this node in the fleet")
	}
	if cfg.Faults != "" && cfg.Peers == "" {
		return fmt.Errorf("-faults injects node faults into the -peers front door and needs -peers")
	}
	if cfg.ReplicateFrom != "" && cfg.StateDir == "" {
		return fmt.Errorf("-replicate-from requires -state-dir: the follower journals replicated state locally")
	}

	// Events flow to the console (text or JSON) and, independently, to a
	// size-capped rotating JSON log when -event-log is set.
	em := &emitter{w: w}
	var sinkWriters []io.Writer
	if cfg.JSON {
		sinkWriters = append(sinkWriters, w)
	}
	if cfg.EventLog != "" {
		rw, err := obs.NewRotatingWriter(cfg.EventLog, cfg.EventLogMaxBytes, nil)
		if err != nil {
			return err
		}
		defer rw.Close()
		sinkWriters = append(sinkWriters, rw)
	}
	var sink *obs.EventSink
	if len(sinkWriters) > 0 {
		sink = obs.NewEventSink(io.MultiWriter(sinkWriters...))
		em.sink = sink
		if cfg.JSON {
			em.w = nil // the console already receives JSON via the sink
		}
	}

	// The registry: journal-backed when -state-dir is set, in-memory
	// otherwise. A populated state dir recovers the pre-crash model set
	// and active version instead of re-bootstrapping.
	var reg *registry.Registry
	var recov *registry.Recovery
	if cfg.StateDir != "" {
		var err error
		reg, recov, err = registry.Open(filepath.Join(cfg.StateDir, "models"), registry.OpenOptions{})
		if err != nil {
			return err
		}
		defer reg.Close()
		if recov.Journal.TruncatedRecords > 0 || recov.Journal.TruncatedBytes > 0 {
			if err := em.event("journal_truncated",
				fmt.Sprintf("recovery truncated a torn journal tail: %d record(s), %d byte(s)",
					recov.Journal.TruncatedRecords, recov.Journal.TruncatedBytes),
				map[string]any{"records": recov.Journal.TruncatedRecords,
					"bytes": recov.Journal.TruncatedBytes}); err != nil {
				return err
			}
		}
		if recov.Journal.QuarantineFile != "" {
			if err := em.event("segment_quarantined",
				fmt.Sprintf("recovery quarantined a corrupt journal segment: %d byte(s) preserved in %s",
					recov.Journal.QuarantinedBytes, recov.Journal.QuarantineFile),
				map[string]any{"file": recov.Journal.QuarantineFile,
					"bytes": recov.Journal.QuarantinedBytes}); err != nil {
				return err
			}
		}
	} else {
		reg = registry.New()
	}
	recovered := recov != nil && recov.Versions > 0

	var names []string
	var baseline float64

	switch {
	case recovered:
		// The models came back from the journal; the counter order and
		// drift baseline come from the meta document written at first boot.
		meta, err := readStateMeta(cfg.StateDir)
		if err != nil {
			return err
		}
		names = meta.Names
		baseline = meta.BaselineRMSE
	case len(cfg.Models) > 0:
		// Daemon with pre-trained models: v1, v2, ... in flag order; the
		// first admitted version serves.
		for i, path := range cfg.Models {
			version := fmt.Sprintf("v%d", i+1)
			if err := reg.LoadFile(version, path); err != nil {
				return err
			}
		}
		// The counter stream order is the standard registry's.
		names = counters.StandardRegistry().Names()
	case cfg.ReplicateFrom != "":
		// Replica first boot: every model arrives through replication, so
		// nothing is bootstrapped here. The counter order is the standard
		// registry's — the same order the simulation substrate emits, so a
		// sim-bootstrapped leader and its replicas interpret rows alike.
		names = counters.StandardRegistry().Names()
	default:
		// Bootstrap: simulate the cluster, fit v1 with the chosen
		// technique and v2 linear (the swap/rollback partner), admit both.
		traces, err := simTraces(cfg)
		if err != nil {
			return err
		}
		names = traces[0].Names
		if baseline, err = bootstrapModels(reg, traces, models.Technique(cfg.Tech)); err != nil {
			return err
		}
		if err := em.event("trained",
			fmt.Sprintf("bootstrapped %s model v1 (+linear v2) on %s; baseline rMSE %.2f W",
				cfg.Tech, strings.Join(cfg.Workloads, "+"), baseline),
			map[string]any{"technique": cfg.Tech, "baseline_rmse_w": round2(baseline),
				"versions": reg.Len()}); err != nil {
			return err
		}
	}
	if cfg.StateDir != "" && !recovered {
		// First boot on this state dir: persist what recovery will need.
		if err := writeStateMeta(cfg.StateDir, stateMeta{
			Names: names, BaselineRMSE: baseline, Tech: cfg.Tech,
		}); err != nil {
			return err
		}
	}

	// Request tracing: the store always exists so /debug/traces is live;
	// -trace-sample governs how much untagged traffic lands in it.
	traceStore := obs.NewTraceStore(cfg.TraceBuffer, cfg.TraceSlow)

	scfg := serve.Config{
		Shards: cfg.Shards, QueueDepth: cfg.Queue,
		BatchWindow: cfg.BatchWindow, BatchMax: cfg.BatchMax, Deadline: cfg.Deadline,
		Names: names, BaselineRMSE: baseline, Events: sink,
		Traces: traceStore, TraceSample: cfg.TraceSample,
	}
	if cfg.Overload {
		scfg.Overload = &overload.Config{Events: sink}
	}
	// Distributed mode: the partition decides which machines this node
	// answers for; the engine rejects the rest with a 421 redirect hint.
	var peers []dist.Peer
	var part *dist.Partition
	if cfg.Peers != "" {
		var err error
		if peers, err = dist.ParsePeers(cfg.Peers); err != nil {
			return err
		}
		if part, err = dist.NewPartition(cfg.NodeID, peers); err != nil {
			return err
		}
		scfg.Owner = func(machineID string) (string, string, bool) {
			p := part.Owner(machineID)
			return p.ID, p.Addr, p.ID == cfg.NodeID
		}
	}
	// Live SLOs ride the serving path's own observation streams.
	if cfg.SLODre > 0 || cfg.SLOP99 > 0 {
		scfg.Observer = slo.NewTracker(slo.Config{
			DREObjective: cfg.SLODre, P99Objective: cfg.SLOP99,
			FastWindow: cfg.SLOWindow, Events: sink,
		})
	}
	// The orchestrator is built before the engine so its Ingest hook can
	// ride along in the serve config; it is started (and bound to the
	// engine) right after. With a state dir, the last checkpoint restores
	// BEFORE Start so a mid-probation restart resumes probation instead of
	// skipping it.
	var orch *lifecycle.Orchestrator
	var ck *store.Checkpointer
	lifecycleState := ""
	if cfg.Lifecycle {
		fromFiles := len(cfg.Models) > 0 || recovered
		spec, err := lifecycleSpec(reg, fromFiles)
		if err != nil {
			return err
		}
		orch, err = lifecycle.New(reg, lifecycle.Config{
			Tech: models.Technique(cfg.Tech), Spec: spec, Names: names,
			Interval: cfg.LifecycleInterval, TriggerSamples: cfg.LifecycleSamples,
			PromoteMargin: cfg.PromoteMargin, ProbationSnapshots: cfg.Probation,
			Events: sink,
		})
		if err != nil {
			return err
		}
		if cfg.StateDir != "" {
			ckPath := filepath.Join(cfg.StateDir, "lifecycle.ckpt")
			if data, err := os.ReadFile(ckPath); err == nil {
				if rerr := orch.RestoreCheckpoint(data); rerr != nil {
					// A stale or incompatible checkpoint must not block boot;
					// the loop restarts fresh and the fact is reported.
					if err := em.event("lifecycle_error",
						"lifecycle checkpoint not restored: "+rerr.Error(),
						map[string]any{"stage": "restore", "error": rerr.Error()}); err != nil {
						return err
					}
				} else {
					lifecycleState = orch.Status().State
				}
			} else if !os.IsNotExist(err) {
				return fmt.Errorf("reading lifecycle checkpoint: %w", err)
			}
			interval := cfg.CheckpointInterval
			if interval <= 0 {
				interval = 10 * time.Second
			}
			if ck, err = store.NewCheckpointer(ckPath, interval, orch.MarshalCheckpoint); err != nil {
				return err
			}
			defer ck.Close()
		}
		scfg.Labeled = orch.Ingest
	}
	if recovered {
		if err := em.event("recovered",
			fmt.Sprintf("recovered %d model version(s) from %s; active %s",
				recov.Versions, cfg.StateDir, recov.Active),
			map[string]any{"versions": recov.Versions, "active": recov.Active,
				"from_snapshot": recov.FromSnapshot, "skipped_records": recov.SkippedRecords,
				"truncated_records": recov.Journal.TruncatedRecords,
				"lifecycle_state":   lifecycleState}); err != nil {
			return err
		}
	}
	srv, err := serve.New(reg, scfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	if orch != nil {
		if err := orch.Start(srv); err != nil {
			return err
		}
		defer orch.Close()
		srv.AttachLifecycle(orch)
	}
	// One mux carries the whole node: the /v1 serving API plus, in
	// distributed mode, the cluster front door and — on any persistent
	// node — the replication endpoints (leadership is just being the node
	// others point -replicate-from at).
	mux := serve.NewMux(srv)
	if part != nil {
		var inj *faults.Injector
		if cfg.Faults != "" {
			scen, err := faults.LoadScenario(cfg.Faults)
			if err != nil {
				return err
			}
			if inj, err = faults.NewInjector(scen, cfg.Seed); err != nil {
				return err
			}
		}
		node, err := dist.NewNode(dist.Config{
			Self: cfg.NodeID, Peers: peers, Local: srv,
			PeerDeadline: cfg.PeerDeadline, ClusterDeadline: cfg.ClusterDeadline,
			BudgetMargin: cfg.BudgetMargin, HedgeRate: cfg.HedgeRate,
			Level: srv.BrownoutLevel, Events: sink, Injector: inj,
		})
		if err != nil {
			return err
		}
		node.Mount(mux)
	}
	if reg.Persistent() {
		dist.MountReplication(mux, reg)
	}
	httpSrv, err := serve.ServeHandler(cfg.Listen, mux)
	if err != nil {
		return err
	}
	defer httpSrv.Close()

	if cfg.ReplicateFrom != "" {
		fol, err := dist.StartFollower(dist.FollowerConfig{
			LeaderURL: cfg.ReplicateFrom, Registry: reg,
			CheckpointPath: filepath.Join(cfg.StateDir, "replication.ckpt"),
			Seed:           cfg.Seed, NodeID: cfg.NodeID, Events: sink,
		})
		if err != nil {
			return err
		}
		// Deferred before the registry's own deferred Close, so the tail
		// loop stops applying before the journal is released.
		defer fol.Close()
	}

	if err := em.event("serving",
		fmt.Sprintf("serving /v1 API and /metrics on http://%s (active model %s)",
			httpSrv.Addr(), reg.ActiveVersion()),
		map[string]any{"addr": httpSrv.Addr(), "active": reg.ActiveVersion(),
			"shards": cfg.Shards, "queue": cfg.Queue, "node": cfg.NodeID}); err != nil {
		return err
	}

	if cfg.holdOpen != nil {
		cfg.holdOpen(httpSrv.Addr())
		return nil
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig

	// Ordered graceful shutdown: stop intake, drain the shards (every
	// queued request still gets an answer), stop the lifecycle loop, take
	// the final checkpoint, and only then let the deferred reg.Close
	// release the journal. Every step is idempotent against the deferred
	// closes that follow the return.
	httpSrv.Close()
	srv.Close()
	if orch != nil {
		orch.Close()
	}
	ckBytes := 0
	if ck != nil {
		ck.Close()
		n, err := ck.Flush()
		if err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		ckBytes = n
	}
	return em.event("shutdown",
		fmt.Sprintf("shut down cleanly: drained %d queued sample(s), checkpointed %d byte(s), active model %s",
			srv.Drained(), ckBytes, reg.ActiveVersion()),
		map[string]any{"drained_samples": srv.Drained(), "checkpoint_bytes": ckBytes,
			"active": reg.ActiveVersion()})
}

// stateMeta is the small document beside the journal that recovery needs
// but the journal does not carry: the counter-stream order and the drift
// baseline the serving engine was configured with at first boot.
type stateMeta struct {
	Names        []string `json:"names"`
	BaselineRMSE float64  `json:"baseline_rmse"`
	Tech         string   `json:"tech,omitempty"`
}

func writeStateMeta(dir string, m stateMeta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(filepath.Join(dir, "meta.json"), data, 0o644)
}

func readStateMeta(dir string) (stateMeta, error) {
	var m stateMeta
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return m, fmt.Errorf("state dir has models but no readable meta.json: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("parsing %s/meta.json: %w", dir, err)
	}
	if len(m.Names) == 0 {
		return m, fmt.Errorf("%s/meta.json carries no counter names", dir)
	}
	return m, nil
}

// lifecycleSpec picks the feature spec lifecycle challengers are fitted
// on: the bootstrap spec when simulating, otherwise the active model's
// own spec (platforms of one version share a spec; the lowest-sorted
// platform's copy is representative).
func lifecycleSpec(reg *registry.Registry, fromFiles bool) (models.FeatureSpec, error) {
	if !fromFiles {
		return core.ClusterSpec([]string{counters.CPUTotal, counters.CPUFreqCore0}), nil
	}
	e := reg.Active()
	if e == nil {
		return models.FeatureSpec{}, fmt.Errorf("lifecycle needs an active model to derive the retrain spec")
	}
	platforms := make([]string, 0, len(e.Model.ByPlatform))
	for p := range e.Model.ByPlatform {
		platforms = append(platforms, p)
	}
	sort.Strings(platforms)
	return e.Model.ByPlatform[platforms[0]].Spec, nil
}

// simTraces runs the workload sequence on a simulated cluster, giving the
// bootstrap its training data.
func simTraces(cfg config) ([]*trace.Trace, error) {
	cluster, err := telemetry.New(cfg.Platform, cfg.Machines, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return cluster.RunSequence(cfg.Workloads, 10, 3000, 0)
}

// bootstrapModels fits v1 (requested technique) and v2 (linear) on the
// simulated traces and admits both; v1 serves. Returns v1's training-set
// rMSE as the drift-monitor baseline.
func bootstrapModels(reg *registry.Registry, traces []*trace.Trace, tech models.Technique) (float64, error) {
	spec := core.ClusterSpec([]string{counters.CPUTotal, counters.CPUFreqCore0})
	var train []*trace.Trace
	for _, t := range traces {
		train = append(train, trace.Subsample(t, 2))
	}
	fit := func(tech models.Technique) (*models.ClusterModel, error) {
		mm, err := models.FitMachineModel(tech, train, spec,
			models.FitOptions{FreqCol: spec.FreqInputIndex(), MaxKnots: 8})
		if err != nil {
			return nil, err
		}
		return models.NewClusterModel(mm)
	}
	v1, err := fit(tech)
	if err != nil {
		return 0, err
	}
	if err := reg.Add("v1", v1, registry.Meta{Description: string(tech) + " bootstrap", Source: "sim"}); err != nil {
		return 0, err
	}
	v2, err := fit(models.TechLinear)
	if err != nil {
		return 0, err
	}
	if err := reg.Add("v2", v2, registry.Meta{Description: "linear bootstrap", Source: "sim"}); err != nil {
		return 0, err
	}
	pred, actual, err := v1.PredictCluster(traces)
	if err != nil {
		return 0, err
	}
	return metrics.RMSE(pred, actual)
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
