// Package lifecycle closes the loop the paper's automatic-framework
// motivation calls for (§IV-A: "rapidly and easily build new models for
// applications, thus adapting to new characteristics and workloads"): a
// background orchestrator that watches the serving layer's drift monitor,
// buffers each machine's labeled seconds, retrains a challenger model off
// the hot path when triggered, shadow-scores it against the live champion
// on the labeled snapshots that arrive after its fit, and so on traffic
// it never trained on (challenger predictions are computed here, never
// returned to clients), and promotes it through the registry's atomic
// hot-swap only when it beats the champion on dynamic-range error by a
// configurable margin — with automatic rollback if post-promotion error
// regresses inside a probation window.
//
// The orchestrator never touches the request path: the serving layer
// feeds it labeled snapshots through one cheap callback, and every heavy
// step (fitting, window scoring) runs inside Step, on the caller's clock:
// the daemon's Start loop steps it on the wall clock, a simulation once
// per simulated second.
package lifecycle

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/registry"
)

// Lifecycle instruments, resolved once at import.
var (
	lcRetrains    = obs.Default().Counter("chaos_lifecycle_retrains_total", nil)
	lcPromotions  = obs.Default().Counter("chaos_lifecycle_promotions_total", nil)
	lcRollbacks   = obs.Default().Counter("chaos_lifecycle_rollbacks_total", nil)
	lcShadowRatio = obs.Default().Gauge("chaos_shadow_error_ratio", nil)
)

// Engine is the drift alarm the orchestrator watches: *serve.Server in the
// daemon, an *online.Monitor where the caller runs its own predictor.
// lifecycle stays decoupled from the HTTP layer.
type Engine interface {
	// Drifted reports whether the drift monitor has alarmed.
	Drifted() bool
	// ResetDrift clears the drift alarm after a verdict or a rollback, so
	// the monitor re-arms on fresh residuals, and re-bases it on baseline
	// when that is positive; zero keeps the baseline in force. It returns
	// the baseline in force before the call (zero without a monitor).
	ResetDrift(baseline float64) (previous float64)
}

const (
	// checkInterval is the cadence of Start's loop.
	checkInterval = 250 * time.Millisecond
	// cooldown is the minimum gap, on the clock Step is given, between
	// automatic retrains. Manual triggers bypass it, and so does the first
	// automatic retrain: until a retrain has actually run there is nothing
	// to cool down from, and only the minimum-window gate should delay
	// reacting to early drift.
	cooldown = 30 * time.Second
	// minTrainSnapshots gates automatic triggers until the retrain buffers
	// hold this many labeled snapshots. Manual triggers bypass it.
	minTrainSnapshots = 64
	// liveSnapshots is the verdict's evidence: both contenders are scored
	// on the first liveSnapshots labeled snapshots ingested after the
	// challenger's training rows were taken, none of which it trained on.
	liveSnapshots = 20
)

// Config tunes the orchestrator. Zero values take defaults.
type Config struct {
	// Tech is the technique challengers are fitted with (default linear).
	Tech models.Technique
	// Spec is the feature spec challengers are fitted on. Required.
	Spec models.FeatureSpec
	// Names is the counter order of incoming sample rows. Required.
	Names []string
	// TriggerSamples, when positive, triggers a retrain after this many
	// labeled snapshots have arrived since the last one.
	TriggerSamples int
	// PromoteMargin is the fraction by which the challenger's
	// dynamic-range error must beat the champion's to promote
	// (default 0.05): promote iff challDRE <= champDRE * (1 - margin).
	PromoteMargin float64
	// ProbationSnapshots is how many metered snapshots the freshly
	// promoted model is watched for after the swap. Zero, the default,
	// disables probation. Probation rolls back when the live RMSE exceeds
	// 2 × the shadow RMSE (the challenger's RMSE on the verdict's live
	// snapshots) + 1 W; the watt of slack keeps a near-perfect shadow fit
	// from making it hair-triggered.
	ProbationSnapshots int
	// Events, when set, receives the lifecycle JSON events:
	// retrain_triggered, challenger_trained, shadow_verdict, promoted,
	// rolled_back (plus lifecycle_error on failures). Each event emitted
	// by Step carries t_s, the Unix second of the clock Step was given.
	Events *obs.EventSink
}

func (c Config) withDefaults() (Config, error) {
	if c.Tech == "" {
		c.Tech = models.TechLinear
	}
	if len(c.Spec.Counters) == 0 {
		return c, fmt.Errorf("lifecycle: config needs a feature spec")
	}
	if len(c.Names) == 0 {
		return c, fmt.Errorf("lifecycle: config needs the counter name order")
	}
	if c.PromoteMargin <= 0 {
		c.PromoteMargin = 0.05
	}
	if c.ProbationSnapshots < 0 {
		c.ProbationSnapshots = 0
	}
	return c, nil
}

// state is the orchestrator's phase.
type state int

const (
	stateIdle state = iota
	stateTraining
	stateShadowing
	stateProbation
)

func (s state) String() string {
	switch s {
	case stateIdle:
		return "idle"
	case stateTraining:
		return "training"
	case stateShadowing:
		return "shadowing"
	case stateProbation:
		return "probation"
	}
	return "unknown"
}

// probAccum accumulates the promoted model's post-swap live error.
type probAccum struct {
	n   int
	sse float64
}

// Orchestrator is the closed-loop model lifecycle driver. Create with
// New, feed it labeled snapshots through Ingest, and advance it with Step
// on the caller's clock, or with Start's wall-clock loop and Close on
// shutdown.
type Orchestrator struct {
	reg *registry.Registry
	eng Engine
	cfg Config

	mu    sync.Mutex
	state state
	buf   *buffers

	sinceRetrain int
	lastRetrain  time.Time // zero until the first retrain runs
	manual       []string

	// shadow evaluation
	challenger string
	champion   string
	// live holds, oldest first, up to liveSnapshots labeled snapshots
	// ingested since the latest challenger's training rows were taken;
	// after the verdict it is that verdict's evidence.
	live []Snapshot

	// probation
	promotedVersion string
	promotedPrev    string
	shadowRMSE      float64
	probation       probAccum

	// baseline is the drift baseline the last promotion or rollback
	// re-based the engine on (zero: never re-based), and prevBaseline the
	// one in force before the latest promotion, which a rollback restores.
	baseline     float64
	prevBaseline float64

	// status
	seq         int
	retrains    int
	promotions  int
	rollbacks   int
	lastTrigger string
	lastVerdict string
	lastRatio   float64
	lastErr     string
	started     bool
	closed      bool

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// New builds an orchestrator over the registry that watches eng's drift
// alarm.
func New(reg *registry.Registry, eng Engine, cfg Config) (*Orchestrator, error) {
	if reg == nil {
		return nil, fmt.Errorf("lifecycle: nil registry")
	}
	if eng == nil {
		return nil, fmt.Errorf("lifecycle: nil engine")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// lastRetrain stays zero until the first retrain actually runs: the
	// cooldown gate never blocks the first trigger after startup (the
	// min-window gate is what paces the warmup).
	return &Orchestrator{
		reg:  reg,
		eng:  eng,
		cfg:  cfg,
		buf:  newBuffers(bufferCapacity),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Start launches the daemon's loop: Step(time.Now()) every 250 ms, or at
// once on a manual trigger. Nothing else may call Step once it runs.
func (o *Orchestrator) Start() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return fmt.Errorf("lifecycle: orchestrator closed")
	}
	if o.started {
		return fmt.Errorf("lifecycle: already started")
	}
	o.started = true
	go o.run()
	return nil
}

// Close stops Start's loop. Safe to call more than once, and before Start.
func (o *Orchestrator) Close() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	started := o.started
	o.mu.Unlock()
	close(o.stop)
	if started {
		<-o.done
	}
}

// Ingest receives one fully-served metered snapshot from the serving
// layer: the samples, the per-machine metered watts, the cluster estimate
// answered, and the version that served it. It feeds the retrain buffers,
// the live window while a challenger awaits its verdict, and — during
// probation — the promoted model's live error (only snapshots the
// promoted version itself served count: requests in flight across the
// swap were answered by the old champion and say nothing about the new
// model). A snapshot with a mis-sized row or a non-finite metered total
// is dropped whole, before any buffer sees it. Each counter row is copied
// once, and the copy is shared by the buffers and the live window;
// callers may reuse theirs.
func (o *Orchestrator) Ingest(samples []online.Sample, metered []float64, estimated float64, version string) {
	width := len(o.cfg.Names)
	if len(samples) == 0 || len(metered) != len(samples) {
		return
	}
	var actual float64
	for i, s := range samples {
		if len(s.Counters) != width {
			return
		}
		actual += metered[i]
	}
	if math.IsNaN(actual) || math.IsInf(actual, 0) {
		return
	}
	snap := Snapshot{Samples: make([]online.Sample, len(samples)), Actual: actual}
	rows := make([]float64, 0, len(samples)*width)
	for i, s := range samples {
		rows = append(rows, s.Counters...)
		snap.Samples[i] = online.Sample{MachineID: s.MachineID, Platform: s.Platform,
			Counters: rows[i*width : (i+1)*width : (i+1)*width]}
	}
	o.mu.Lock()
	for i, s := range snap.Samples {
		o.buf.add(s, metered[i])
	}
	o.sinceRetrain++
	if (o.state == stateTraining || o.state == stateShadowing) && len(o.live) < liveSnapshots {
		o.live = append(o.live, snap)
	}
	if o.state == stateProbation && version == o.promotedVersion &&
		!math.IsNaN(estimated) && !math.IsInf(estimated, 0) {
		d := estimated - actual
		o.probation.n++
		o.probation.sse += d * d
	}
	o.mu.Unlock()
}

// TriggerRetrain requests an explicit retrain (the /v1/lifecycle/retrain
// path), served by the next Step. Manual triggers bypass the cooldown and
// minimum-window gates; the retrain itself still fails cleanly when too
// little is buffered.
func (o *Orchestrator) TriggerRetrain(reason string) error {
	if reason == "" {
		reason = "manual"
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return fmt.Errorf("lifecycle: orchestrator closed")
	}
	if len(o.manual) >= 8 {
		return fmt.Errorf("lifecycle: too many pending retrain requests")
	}
	o.manual = append(o.manual, reason)
	select {
	case o.kick <- struct{}{}:
	default:
	}
	return nil
}

// Status is the machine-readable orchestrator state (the
// /v1/lifecycle/status payload).
type Status struct {
	State                 string  `json:"state"`
	Champion              string  `json:"champion"`
	Challenger            string  `json:"challenger,omitempty"`
	Retrains              int     `json:"retrains"`
	Promotions            int     `json:"promotions"`
	Rollbacks             int     `json:"rollbacks"`
	SnapshotsSinceRetrain int     `json:"snapshots_since_retrain"`
	LiveShadowSnapshots   int     `json:"live_shadow_snapshots"`
	ProbationSnapshots    int     `json:"probation_snapshots"`
	LastTrigger           string  `json:"last_trigger,omitempty"`
	LastVerdict           string  `json:"last_verdict,omitempty"`
	ShadowErrorRatio      float64 `json:"shadow_error_ratio,omitempty"`
	LastError             string  `json:"last_error,omitempty"`
}

// Status returns a snapshot of the orchestrator state.
func (o *Orchestrator) Status() Status {
	o.mu.Lock()
	defer o.mu.Unlock()
	return Status{
		State:                 o.state.String(),
		Champion:              o.reg.ActiveVersion(),
		Challenger:            o.challenger,
		Retrains:              o.retrains,
		Promotions:            o.promotions,
		Rollbacks:             o.rollbacks,
		SnapshotsSinceRetrain: o.sinceRetrain,
		LiveShadowSnapshots:   len(o.live),
		ProbationSnapshots:    o.probation.n,
		LastTrigger:           o.lastTrigger,
		LastVerdict:           o.lastVerdict,
		ShadowErrorRatio:      o.lastRatio,
		LastError:             o.lastErr,
	}
}

// StatusJSON adapts Status to the serve.Lifecycle interface.
func (o *Orchestrator) StatusJSON() any { return o.Status() }

// run is Start's loop: one Step per checkInterval, or sooner on a manual
// kick.
func (o *Orchestrator) run() {
	defer close(o.done)
	t := time.NewTicker(checkInterval)
	defer t.Stop()
	for {
		select {
		case <-o.stop:
			return
		case <-t.C:
		case <-o.kick:
		}
		o.Step(time.Now())
	}
}

// Step advances the state machine at most one phase; now is the caller's
// clock, which paces the cooldown between automatic retrains and stamps
// the events Step emits. Fitting and scoring run inside Step with the
// mutex released, so Ingest never blocks on them. Steps must not
// overlap: one goroutine drives them.
func (o *Orchestrator) Step(now time.Time) {
	o.mu.Lock()
	switch o.state {
	case stateIdle:
		reason, ok := o.triggerLocked(now)
		if !ok {
			o.mu.Unlock()
			return
		}
		o.state = stateTraining
		o.lastTrigger = reason
		o.sinceRetrain = 0
		o.lastRetrain = now
		o.lastErr = ""
		// The training rows are taken under the same lock that starts the
		// live window, so no snapshot is both trained on and scored.
		rows := o.buf.copyRows()
		o.live = nil
		o.mu.Unlock()
		o.emit(now, "retrain_triggered", map[string]any{"reason": reason})
		o.train(now, reason, rows)
	case stateShadowing:
		if len(o.live) < liveSnapshots {
			o.mu.Unlock()
			return
		}
		o.mu.Unlock()
		o.verdict(now)
	case stateProbation:
		o.mu.Unlock()
		o.checkProbation(now)
	default:
		o.mu.Unlock()
	}
}

// triggerLocked decides whether a retrain should start at now. Caller
// holds o.mu.
func (o *Orchestrator) triggerLocked(now time.Time) (string, bool) {
	if len(o.manual) > 0 {
		r := o.manual[0]
		o.manual = o.manual[1:]
		return r, true
	}
	if o.buf.snapshots() < minTrainSnapshots {
		return "", false
	}
	// The cooldown spaces retrains apart; before the first one there is
	// nothing to cool down from, so only the min-window gate above paces
	// the warmup and early drift is acted on immediately.
	if !o.lastRetrain.IsZero() && now.Sub(o.lastRetrain) < cooldown {
		return "", false
	}
	if o.eng.Drifted() {
		return "drift", true
	}
	if o.cfg.TriggerSamples > 0 && o.sinceRetrain >= o.cfg.TriggerSamples {
		return "samples", true
	}
	return "", false
}

// fail records a lifecycle error and returns the machine to idle.
func (o *Orchestrator) fail(now time.Time, stage string, err error) {
	o.mu.Lock()
	o.lastErr = stage + ": " + err.Error()
	o.state = stateIdle
	o.challenger = ""
	o.mu.Unlock()
	o.emit(now, "lifecycle_error", map[string]any{"stage": stage, "error": err.Error()})
}

// train fits the challenger on the rows taken at the trigger, admits it
// to the registry (inactive), and leaves it shadowing while the live
// window fills.
func (o *Orchestrator) train(now time.Time, reason string, rows []machineRows) {
	start := time.Now()
	cm, err := fit(rows, o.cfg.Names, o.cfg.Tech, o.cfg.Spec)
	if err != nil {
		o.fail(now, "retrain", err)
		return
	}
	champion := o.reg.ActiveVersion()
	if champion == "" {
		o.fail(now, "retrain", fmt.Errorf("lifecycle: no active champion to challenge"))
		return
	}
	var version string
	admitted := false
	for attempt := 0; attempt < 100; attempt++ {
		o.mu.Lock()
		o.seq++
		version = fmt.Sprintf("auto-%d", o.seq)
		o.mu.Unlock()
		if err = o.reg.Add(version, cm, registry.Meta{
			Description: "lifecycle challenger (" + reason + ")",
			Source:      "lifecycle",
		}); err == nil {
			admitted = true
			break
		}
	}
	if !admitted {
		o.fail(now, "admit", err)
		return
	}
	lcRetrains.Inc()
	o.mu.Lock()
	o.state = stateShadowing
	o.challenger = version
	o.champion = champion
	o.retrains++
	o.mu.Unlock()
	o.emit(now, "challenger_trained", map[string]any{
		"version": version, "champion": champion,
		"technique": string(o.cfg.Tech),
		"train_ms":  float64(time.Since(start).Milliseconds()),
	})
}

// verdict scores both contenders on the live window and either
// hot-swaps the challenger in, re-basing the drift alarm on its live
// RMSE, or leaves the champion serving on the baseline in force.
func (o *Orchestrator) verdict(now time.Time) {
	o.mu.Lock()
	version, champion, win := o.challenger, o.champion, o.live
	o.mu.Unlock()
	champ, chall, err := o.scorePair(champion, version, win)
	if err != nil {
		o.fail(now, "score", err)
		return
	}
	// Both contenders are judged on the same snapshots: the challenger must
	// score every one the champion scores, and since none of them is in its
	// training rows, a challenger fitted on a corrupted label stretch
	// cannot fake them. The shared dynamic range — the champion's — makes
	// DRE and RMSE order identically; DRE is still reported because it is
	// the paper's platform-independent measure. With a positive margin a
	// promoted challenger is also no worse than the champion there.
	rng, champDRE, challDRE := 0.0, champ.RMSE, chall.RMSE
	if champ.N > 0 && champ.MaxActual > champ.MinActual {
		rng = champ.MaxActual - champ.MinActual
		champDRE, challDRE = champ.RMSE/rng, chall.RMSE/rng
	}
	promote := champ.N > 0 && chall.N == champ.N && challDRE <= champDRE*(1-o.cfg.PromoteMargin)
	ratio := errorRatio(chall.RMSE, champ.RMSE)

	lcShadowRatio.Set(ratio)
	o.emit(now, "shadow_verdict", map[string]any{
		"champion": champion, "challenger": version,
		"promote":   promote,
		"champ_dre": champDRE, "chall_dre": challDRE, "ratio": ratio,
		"dynamic_range_w": rng, "live": champ.N,
	})

	if !promote {
		o.eng.ResetDrift(0)
		o.mu.Lock()
		o.state = stateIdle
		o.lastVerdict = "rejected"
		o.lastRatio = ratio
		o.challenger = ""
		o.mu.Unlock()
		return
	}
	if err := o.reg.Activate(version); err != nil {
		o.fail(now, "promote", err)
		return
	}
	lcPromotions.Inc()
	// The challenger's live RMSE is out of sample: it is the error level
	// probation holds the promoted model to and the drift alarm's new
	// baseline.
	prev := o.eng.ResetDrift(chall.RMSE)
	o.mu.Lock()
	o.promotions++
	o.lastVerdict = "promoted"
	o.lastRatio = ratio
	o.promotedVersion = version
	o.promotedPrev = champion
	o.shadowRMSE = chall.RMSE
	o.probation = probAccum{}
	o.prevBaseline = prev
	if chall.RMSE > 0 {
		o.baseline = chall.RMSE
	}
	o.challenger = ""
	if o.cfg.ProbationSnapshots > 0 {
		o.state = stateProbation
	} else {
		o.state = stateIdle
	}
	o.mu.Unlock()
	o.emit(now, "promoted", map[string]any{
		"version": version, "previous": champion, "shadow_rmse_w": chall.RMSE,
	})
}

// checkProbation watches the promoted model's live error and rolls back
// if it regresses past the bound — without waiting for the full window
// once enough evidence has accumulated.
func (o *Orchestrator) checkProbation(now time.Time) {
	o.mu.Lock()
	n, sse := o.probation.n, o.probation.sse
	version, prev, shadowRMSE := o.promotedVersion, o.promotedPrev, o.shadowRMSE
	baseline := o.prevBaseline
	o.mu.Unlock()

	minCheck := o.cfg.ProbationSnapshots / 4
	if minCheck < 8 {
		minCheck = 8
	}
	if minCheck > o.cfg.ProbationSnapshots {
		minCheck = o.cfg.ProbationSnapshots
	}
	if n < minCheck {
		return
	}
	liveRMSE := math.Sqrt(sse / float64(n))
	limit := 2*shadowRMSE + 1
	if liveRMSE > limit {
		// Only roll back if the promoted version is still serving — an
		// operator activating something else mid-probation wins.
		if o.reg.ActiveVersion() == version {
			to, err := o.reg.Rollback()
			if err != nil {
				o.fail(now, "rollback", err)
				return
			}
			prev = to
			lcRollbacks.Inc()
		}
		// The alarm returns to the baseline in force before the promotion.
		o.eng.ResetDrift(baseline)
		o.mu.Lock()
		o.rollbacks++
		o.state = stateIdle
		o.lastVerdict = "rolled_back"
		if baseline > 0 {
			o.baseline = baseline
		}
		o.mu.Unlock()
		o.emit(now, "rolled_back", map[string]any{
			"from": version, "to": prev,
			"live_rmse_w": liveRMSE, "shadow_rmse_w": shadowRMSE, "snapshots": n,
		})
		return
	}
	if n >= o.cfg.ProbationSnapshots {
		o.mu.Lock()
		o.state = stateIdle
		o.mu.Unlock()
	}
}

// scorePair scores the champion and challenger versions over one window.
func (o *Orchestrator) scorePair(champion, challenger string, win []Snapshot) (Score, Score, error) {
	var sc [2]Score
	for i, v := range [2]string{champion, challenger} {
		e, ok := o.reg.Get(v)
		if !ok {
			return Score{}, Score{}, fmt.Errorf("lifecycle: version %q vanished", v)
		}
		var err error
		if sc[i], err = ScoreWindow(e.Model, o.cfg.Names, win); err != nil {
			return Score{}, Score{}, err
		}
	}
	return sc[0], sc[1], nil
}

// emit sends one lifecycle event, stamped with the Unix second of now,
// when a sink is configured.
func (o *Orchestrator) emit(now time.Time, event string, fields map[string]any) {
	if o.cfg.Events != nil {
		fields["t_s"] = now.Unix()
		o.cfg.Events.Emit(event, fields) //nolint:errcheck // telemetry only
	}
}

// errorRatio is challenger error over champion error, guarding zeros.
func errorRatio(chall, champ float64) float64 {
	switch {
	case champ > 0:
		return chall / champ
	case chall == 0:
		return 1
	}
	return math.Inf(1)
}
