// Package serve is the power-prediction serving layer: an HTTP JSON API
// over the versioned model registry, backed by a sharded worker pool
// (sharded by machine ID so per-machine lag history never contends across
// shards) with request batching, bounded queues, 429 backpressure, and
// per-request deadlines. Estimates feed the online drift monitor and the
// obs metrics registry, and model versions hot-swap under load without
// dropping a request: every batch predicts with whichever registry entry
// was active when it was picked up, via one atomic pointer load.
package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/overload"
	"repro/internal/registry"
)

// Serving-path instruments, resolved once; the per-request path pays only
// atomic updates.
var (
	samplesServed  = obs.Default().Counter("chaos_serve_samples_total", nil)
	shedTotal      = obs.Default().Counter("chaos_serve_shed_total", nil)
	deadlineTotal  = obs.Default().Counter("chaos_serve_deadline_exceeded_total", nil)
	batchSizeHist  = obs.Default().Histogram("chaos_serve_batch_size", nil, obs.ExpBuckets(1, 2, 10))
	serveDrift     = obs.Default().Counter("chaos_serve_drift_alarms_total", nil)
	swapPredictors = obs.Default().Counter("chaos_serve_predictor_builds_total", nil)
)

// Config tunes the serving engine. Zero values take defaults.
type Config struct {
	// Shards is the number of worker shards; samples route to a shard by
	// machine-ID hash so one machine's lag history lives on one shard.
	Shards int
	// QueueDepth bounds each shard's queue. A full queue sheds (429).
	QueueDepth int
	// BatchWindow is how long a worker waits to accumulate more samples
	// after the first arrives.
	BatchWindow time.Duration
	// BatchMax caps samples per predictor batch.
	BatchMax int
	// Deadline is the default per-request deadline (overridable per
	// request); samples still queued past it are answered with a
	// deadline-exceeded error instead of occupying the pool.
	Deadline time.Duration
	// Names is the counter order of incoming sample rows.
	Names []string
	// BaselineRMSE, when positive, enables the drift monitor over
	// requests that carry metered watts; it alarms at 16 baselines.
	BaselineRMSE float64
	// Events, when set, receives drift/activation events as JSON lines.
	Events *obs.EventSink
	// Traces, when set, enables request-scoped tracing: sampled requests
	// (and every request carrying a traceparent header) record queue /
	// batch / predict / respond spans into this store, retrievable at
	// /debug/traces.
	Traces *obs.TraceStore
	// TraceSample traces 1 in N requests that did not supply their own
	// traceparent. 0 takes the default (16); negative disables sampling
	// (caller-identified requests still trace).
	TraceSample int
	// Observer, when set, receives per-request latencies and per-machine
	// labeled outcomes — the SLO tracker's feed. Calls happen on the
	// request goroutine, so implementations must be cheap.
	Observer Observer
	// Overload, when set, enables adaptive admission control: one AIMD
	// concurrency limiter per shard (gradient on observed queue+predict
	// latency against a rolling baseline), strict-priority shedding, and
	// the brownout ladder. When nil the engine keeps the static behavior:
	// the bounded queue is the only defense.
	Overload *overload.Config
	// PredictStall, when positive, sleeps this long inside every batch
	// predict. It is a chaos/benchmark knob that pins the engine's
	// capacity analytically (≈ Shards × BatchMax / PredictStall samples
	// per second) so overload experiments are deterministic across
	// hardware. Never set it in production configs.
	PredictStall time.Duration
	// Owner, when set, is the distributed-mode partition check: it reports
	// which peer owns a machine ID and whether that peer is this node.
	// Direct estimates for non-owned machines are rejected with 421 and a
	// redirect hint instead of being served from predictors whose lag
	// history lives on another node.
	Owner func(machineID string) (peer, addr string, local bool)
}

// Observer is the serving engine's outcome feed: request latencies per
// endpoint and fully-labeled snapshots with their per-machine estimates.
// The slo package implements it; keeping it an interface here means serve
// never imports slo.
type Observer interface {
	// ObserveRequest is called once per HTTP estimation request with the
	// endpoint name ("estimate" or "estimate_batch"), the handler
	// duration, and the HTTP status answered.
	ObserveRequest(endpoint string, d time.Duration, status int)
	// ObserveLabeled is called for every fully-served snapshot that
	// carried complete meter readings, with aligned per-machine slices.
	ObserveLabeled(machineIDs []string, estimated, metered []float64, clusterEst float64, version string)
}

func (c Config) withDefaults() (Config, error) {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	if c.Deadline <= 0 {
		c.Deadline = 250 * time.Millisecond
	}
	if len(c.Names) == 0 {
		return c, fmt.Errorf("serve: config needs the counter name order")
	}
	if c.TraceSample == 0 {
		c.TraceSample = 16
	}
	return c, nil
}

// taskResult is one sample's outcome.
type taskResult struct {
	watts   float64
	version string
	err     error
	shed    bool
	late    bool
}

// pending is the gather side of one estimate request: tasks write their
// slot and signal the WaitGroup; the handler waits for all of them.
type pending struct {
	wg      sync.WaitGroup
	results []taskResult
}

// task is one sample queued on a shard. enqueued/dequeued bound the queue
// wait; at, when non-nil, is the request trace the worker records span
// timings into.
type task struct {
	sample   online.Sample
	deadline time.Time
	idx      int
	req      *pending
	enqueued time.Time
	dequeued time.Time
	at       *obs.ActiveTrace
	// acquired means this sample holds one unit of its shard's adaptive
	// limiter and must release it exactly once on completion.
	acquired bool
}

// shard is one worker's queue plus its predictor. Each machine hashes to
// exactly one shard, so the shard's predictor owns that machine's lag
// history without cross-shard contention, whichever model is bound.
type shard struct {
	id    int
	queue chan *task
	depth *obs.Gauge

	// pred is bound to model version; only the worker goroutine touches
	// them.
	pred    *online.Predictor
	version string
}

// Server is the serving engine. Create with New, stop with Close.
type Server struct {
	reg    *registry.Registry
	cfg    Config
	shards []*shard

	monitor *online.Monitor
	drifted atomic.Bool

	// ov, when non-nil, owns the per-shard adaptive limiters and the
	// brownout ladder (Config.Overload).
	ov *overload.Controller

	// lc is the attached lifecycle (AttachLifecycle), nil until then.
	lc atomic.Pointer[Lifecycle]

	closeMu sync.RWMutex // guards shard sends vs Close
	closed  bool
	drained int // tasks still queued when Close began, all answered
	wg      sync.WaitGroup
}

// New builds a serving engine over the registry and starts its workers.
func New(reg *registry.Registry, cfg Config) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("serve: nil registry")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{reg: reg, cfg: cfg}
	if cfg.BaselineRMSE > 0 {
		if s.monitor, err = online.NewMonitor(cfg.BaselineRMSE, 16); err != nil {
			return nil, err
		}
	}
	if cfg.Overload != nil {
		ovcfg := *cfg.Overload
		if ovcfg.Events == nil {
			ovcfg.Events = cfg.Events
		}
		s.ov = overload.NewController(cfg.Shards, ovcfg)
		s.ov.Start()
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			id:    i,
			queue: make(chan *task, cfg.QueueDepth),
			depth: obs.Default().Gauge("chaos_serve_queue_depth", obs.Labels{"shard": strconv.Itoa(i)}),
		}
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go s.worker(sh)
	}
	return s, nil
}

// Close stops the workers after draining queued tasks (every queued task
// still gets an answer) and makes further estimates fail fast.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	for _, sh := range s.shards {
		s.drained += len(sh.queue)
		close(sh.queue)
	}
	s.closeMu.Unlock()
	s.wg.Wait()
	if s.ov != nil {
		s.ov.Close()
	}
}

// Overload exposes the adaptive admission controller, or nil when
// Config.Overload was unset.
func (s *Server) Overload() *overload.Controller { return s.ov }

// BrownoutLevel returns the current brownout rung (0 when adaptive
// admission is disabled).
func (s *Server) BrownoutLevel() int {
	if s.ov == nil {
		return overload.LevelNormal
	}
	return s.ov.Level()
}

// Drained reports how many tasks were still queued when Close began; all
// of them were answered before Close returned (the ordered-shutdown
// accounting the shutdown event reports).
func (s *Server) Drained() int {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	return s.drained
}

// RetryAfterHint estimates how long a shed client should wait before
// retrying: the deepest shard queue, expressed in batch drains (each
// drain clears up to BatchMax samples per BatchWindow). The hint tracks
// actual backlog, so a briefly-full queue asks for a short pause while a
// deep one spreads the retry storm out.
func (s *Server) RetryAfterHint() time.Duration {
	deepest := 0
	for _, sh := range s.shards {
		if d := len(sh.queue); d > deepest {
			deepest = d
		}
	}
	return time.Duration(deepest/s.cfg.BatchMax+1) * s.cfg.BatchWindow
}

// shardFor routes a machine ID to its shard.
func (s *Server) shardFor(machineID string) *shard {
	h := fnv.New32a()
	h.Write([]byte(machineID))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// Estimate runs one cluster snapshot — one sample per machine — through
// the sharded pool and gathers the per-machine watts. It returns the
// summed cluster estimate, the per-machine map, and the model version(s)
// used. Queue overflow surfaces as ErrOverloaded, an expired deadline as
// ErrDeadline. The request is untraced and admitted at Interactive
// priority.
func (s *Server) Estimate(samples []online.Sample, deadline time.Duration, metered []float64) (*Result, error) {
	return s.EstimatePriority(samples, deadline, metered, nil, overload.Interactive)
}

// EstimatePriority is Estimate with a request trace riding along and an
// explicit priority class. Each queued task carries the trace, and the
// shard workers record queue/batch/predict spans into it as the sample
// moves through the pipeline; at may be nil (untraced). With adaptive
// admission enabled the whole snapshot is admitted or shed atomically
// against each touched shard's limiter, so a partially-shed request never
// burns predictor capacity on samples it cannot answer.
func (s *Server) EstimatePriority(samples []online.Sample, deadline time.Duration, metered []float64, at *obs.ActiveTrace, prio overload.Priority) (*Result, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("serve: no samples")
	}
	if deadline <= 0 {
		deadline = s.cfg.Deadline
	}
	now := time.Now()
	due := now.Add(deadline)
	p := &pending{results: make([]taskResult, len(samples))}
	p.wg.Add(len(samples))

	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return nil, fmt.Errorf("serve: server closed")
	}
	if s.ov != nil {
		// All-or-nothing admission: count this snapshot's samples per
		// shard, then acquire each shard's share atomically. On any
		// refusal, roll back what was acquired and shed the request with
		// the limiter's backoff hint.
		counts := make([]int, len(s.shards))
		for i := range samples {
			counts[s.shardFor(samples[i].MachineID).id]++
		}
		for id, n := range counts {
			if n == 0 {
				continue
			}
			dec := s.ov.LimiterFor(id).AcquireN(prio, n)
			if dec.Admit {
				continue
			}
			for j := 0; j < id; j++ {
				if counts[j] > 0 {
					s.ov.LimiterFor(j).Cancel(counts[j])
				}
			}
			s.closeMu.RUnlock()
			shedTotal.Add(float64(len(samples)))
			at.Span("shed", now, 0, obs.String("reason", "limiter"),
				obs.String("priority", prio.String()))
			return &Result{Shed: len(samples), RetryAfter: dec.RetryAfter}, ErrOverloaded
		}
	}
	for i := range samples {
		t := &task{sample: samples[i], deadline: due, idx: i, req: p, enqueued: now, at: at, acquired: s.ov != nil}
		sh := s.shardFor(samples[i].MachineID)
		select {
		case sh.queue <- t:
			sh.depth.Set(float64(len(sh.queue)))
		default:
			// Bounded queue full: shed instead of queueing unboundedly.
			if t.acquired {
				s.ov.LimiterFor(sh.id).Cancel(1)
			}
			shedTotal.Inc()
			at.Span("shed", now, 0, obs.String("machine", samples[i].MachineID))
			p.results[i] = taskResult{shed: true}
			p.wg.Done()
		}
	}
	s.closeMu.RUnlock()
	p.wg.Wait()

	res := &Result{PerMachine: make(map[string]float64, len(samples))}
	versions := map[string]bool{}
	for i, tr := range p.results {
		switch {
		case tr.shed:
			res.Shed++
		case tr.late:
			res.Late++
		case tr.err != nil:
			res.Err = tr.err
		default:
			res.PerMachine[samples[i].MachineID] = tr.watts
			res.ClusterWatts += tr.watts
			versions[tr.version] = true
		}
	}
	for v := range versions {
		res.Versions = append(res.Versions, v)
	}
	sort.Strings(res.Versions)
	if res.Shed > 0 {
		return res, ErrOverloaded
	}
	if res.Late > 0 {
		return res, ErrDeadline
	}
	if res.Err != nil {
		return res, res.Err
	}
	s.observe(res, samples, metered)
	return res, nil
}

// observe feeds a fully-served snapshot with complete meter readings into
// the drift monitor, the attached lifecycle and the Observer. The monitor judges the
// active version, so it takes only snapshots that version served whole: a
// residual of the version a promotion replaced would re-trip the alarm
// the promotion reset.
func (s *Server) observe(res *Result, samples []online.Sample, metered []float64) {
	if len(metered) != len(samples) {
		return
	}
	var actual float64
	for _, w := range metered {
		actual += w
	}
	active := len(res.Versions) == 1 && res.Versions[0] == s.reg.ActiveVersion()
	if s.monitor != nil && active && s.monitor.Observe(res.ClusterWatts, actual) && !s.drifted.Swap(true) {
		serveDrift.Inc()
		if s.cfg.Events != nil {
			s.cfg.Events.Emit("drift", map[string]any{ //nolint:errcheck // telemetry only
				"residual_x": s.monitor.EWMA(),
				"source":     "serve",
			})
		}
	}
	if lc := s.Lifecycle(); lc != nil {
		lc.Ingest(samples, metered, res.ClusterWatts, res.Version())
	}
	if s.cfg.Observer != nil {
		// Same feed point as the lifecycle, but with the per-machine
		// estimates broken out — the accuracy-SLO tracker scores machines
		// individually.
		ids := make([]string, len(samples))
		est := make([]float64, len(samples))
		for i := range samples {
			ids[i] = samples[i].MachineID
			est[i] = res.PerMachine[ids[i]]
		}
		s.cfg.Observer.ObserveLabeled(ids, est, metered, res.ClusterWatts, res.Version())
	}
}

// Drifted reports whether the serve-path drift monitor has alarmed.
func (s *Server) Drifted() bool { return s.drifted.Load() }

// ResetDrift clears the drift alarm and re-arms the monitor on fresh
// residuals (the lifecycle orchestrator calls this after each verdict so
// a resolved drift does not immediately re-trigger).
func (s *Server) ResetDrift() {
	if s.monitor != nil {
		s.monitor.ResetDrift()
	}
	s.drifted.Store(false)
}

// Result is the outcome of one Estimate call.
type Result struct {
	ClusterWatts float64
	PerMachine   map[string]float64
	Versions     []string // model versions that served this snapshot (1 unless a swap landed mid-flight)
	Shed         int
	Late         int
	Err          error
	// RetryAfter is the adaptive limiter's backoff hint when the request
	// was shed by admission control; zero otherwise (the HTTP layer falls
	// back to the queue-depth hint).
	RetryAfter time.Duration
}

// Version returns the single serving version, or a "+"-joined list when a
// hot-swap landed mid-snapshot.
func (r *Result) Version() string {
	switch len(r.Versions) {
	case 0:
		return ""
	case 1:
		return r.Versions[0]
	}
	out := r.Versions[0]
	for _, v := range r.Versions[1:] {
		out += "+" + v
	}
	return out
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	ErrOverloaded = fmt.Errorf("serve: queue full, request shed")
	ErrDeadline   = fmt.Errorf("serve: deadline exceeded before processing")
	ErrNoModel    = fmt.Errorf("serve: no active model")
)

// worker drains one shard: it picks up the first queued task, widens the
// batch for up to BatchWindow (or BatchMax samples), then predicts the
// whole batch under one predictor lock — amortizing queue wakeups, the
// registry load, and feature-row construction bookkeeping across every
// sample that arrived in the window.
func (s *Server) worker(sh *shard) {
	defer s.wg.Done()
	for {
		t, ok := <-sh.queue
		if !ok {
			return
		}
		t.dequeued = time.Now()
		batch := []*task{t}
		window := s.cfg.BatchWindow
		if s.ov != nil && s.ov.Level() >= overload.LevelTrim {
			// Brownout rung 1: shrink the fill window so queued work
			// drains with less artificial batching latency.
			window /= 4
			if window < 50*time.Microsecond {
				window = 50 * time.Microsecond
			}
		}
		timer := time.NewTimer(window)
	fill:
		for len(batch) < s.cfg.BatchMax {
			select {
			case t2, ok := <-sh.queue:
				if !ok {
					break fill
				}
				t2.dequeued = time.Now()
				batch = append(batch, t2)
			case <-timer.C:
				break fill
			}
		}
		timer.Stop()
		sh.depth.Set(float64(len(sh.queue)))
		s.process(sh, batch)
	}
}

// finish answers one task and returns its limiter admission, feeding the
// sample's observed queue+predict latency into the shard's gradient (late
// and failed tasks included — their latency is exactly the congestion
// signal the limiter adapts on).
func (s *Server) finish(sh *shard, t *task, r taskResult) {
	if t.acquired {
		s.ov.LimiterFor(sh.id).Release(time.Since(t.enqueued))
	}
	t.req.results[t.idx] = r
	t.req.wg.Done()
}

// process predicts one batch against the currently active model version.
func (s *Server) process(sh *shard, batch []*task) {
	batchSizeHist.Observe(float64(len(batch)))
	entry := s.reg.Active()
	now := time.Now()

	// Answer expired and model-less tasks without touching the predictor.
	live := batch[:0]
	for _, t := range batch {
		switch {
		case now.After(t.deadline):
			deadlineTotal.Inc()
			t.at.Span("queue", t.enqueued, t.dequeued.Sub(t.enqueued),
				obs.String("machine", t.sample.MachineID), obs.Int("shard", sh.id),
				obs.String("outcome", "late"))
			s.finish(sh, t, taskResult{late: true})
		case entry == nil:
			s.finish(sh, t, taskResult{err: ErrNoModel})
		default:
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return
	}

	pred, err := s.predictorFor(sh, entry)
	if err != nil {
		for _, t := range live {
			s.finish(sh, t, taskResult{err: err})
		}
		return
	}
	samples := make([]online.Sample, len(live))
	traced := false
	for i, t := range live {
		samples[i] = t.sample
		if t.at != nil {
			traced = true
		}
	}
	predictStart := time.Now()
	if s.cfg.PredictStall > 0 {
		time.Sleep(s.cfg.PredictStall)
	}
	items := pred.PredictBatch(samples)
	predictDur := time.Since(predictStart)
	if traced {
		// One queue/batch/predict span chain per traced machine-sample:
		// queue is this task's own wait, batch the window it sat in while
		// the worker widened the pickup, predict the shared batch predict.
		for _, t := range live {
			if t.at == nil {
				continue
			}
			machine := obs.String("machine", t.sample.MachineID)
			t.at.Span("queue", t.enqueued, t.dequeued.Sub(t.enqueued),
				machine, obs.Int("shard", sh.id))
			t.at.Span("batch", t.dequeued, predictStart.Sub(t.dequeued),
				machine, obs.Int("batch_size", len(batch)))
			t.at.Span("predict", predictStart, predictDur,
				machine, obs.String("version", entry.Version))
		}
	}
	for i, t := range live {
		if items[i].Err != nil {
			s.finish(sh, t, taskResult{err: items[i].Err})
		} else {
			samplesServed.Inc()
			s.finish(sh, t, taskResult{watts: items[i].Watts, version: entry.Version})
		}
	}
}

// predictorFor returns the shard's predictor bound to the entry's model:
// built on first use, rebound after a hot-swap or rollback. The lag
// history stays with the shard across every rebind.
func (s *Server) predictorFor(sh *shard, entry *registry.Entry) (*online.Predictor, error) {
	if sh.pred != nil && sh.version == entry.Version {
		return sh.pred, nil
	}
	var err error
	if sh.pred == nil {
		sh.pred, err = online.NewPredictor(entry.Model, s.cfg.Names)
	} else {
		err = sh.pred.SetModel(entry.Model)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: model %s incompatible with stream: %w", entry.Version, err)
	}
	swapPredictors.Inc()
	sh.version = entry.Version
	return sh.pred, nil
}

// ValidateCompatible checks that a model can serve the configured counter
// stream — run at admission time so activation can never install a model
// the shards would reject.
func (s *Server) ValidateCompatible(e *registry.Entry) error {
	_, err := online.NewPredictor(e.Model, s.cfg.Names)
	if err != nil {
		return fmt.Errorf("serve: model %s incompatible with stream: %w", e.Version, err)
	}
	return nil
}

// Registry exposes the underlying model registry (for the HTTP layer).
func (s *Server) Registry() *registry.Registry { return s.reg }
