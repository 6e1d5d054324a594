// Package lifecycle closes the loop the paper's automatic-framework
// motivation calls for (§IV-A: "rapidly and easily build new models for
// applications, thus adapting to new characteristics and workloads"): a
// background orchestrator that watches the serving layer's drift monitor
// and labeled-sample buffers, retrains a challenger model off the hot
// path when triggered, shadow-scores it against the live champion on a
// held-out recent window plus the labeled live traffic that arrives after
// it was trained (challenger predictions are computed here, never returned
// to clients), and promotes it through the registry's atomic hot-swap only
// when it beats the champion on dynamic-range error by a configurable
// margin — with automatic rollback if post-promotion error regresses
// inside a probation window.
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

	"repro/internal/mathx"
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
	// ResetDrift clears the drift alarm after a retrain resolves (or
	// fails to resolve) it, so the monitor re-arms on fresh residuals.
	ResetDrift()
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
)

// Config tunes the orchestrator. Zero values take defaults.
type Config struct {
	// Tech is the technique challengers are fitted with (default linear).
	Tech models.Technique
	// Spec is the feature spec challengers are fitted on. Required.
	Spec models.FeatureSpec
	// Names is the counter order of incoming sample rows. Required.
	Names []string
	// HeldOut is how many recent labeled snapshots the held-out scoring
	// window keeps (default 256).
	HeldOut int
	// TriggerSamples, when positive, triggers a retrain after this many
	// labeled snapshots have arrived since the last one.
	TriggerSamples int
	// MinTrainSnapshots gates automatic triggers until the held-out
	// window holds at least this many snapshots (default 64). Manual
	// triggers bypass it.
	MinTrainSnapshots int
	// ShadowSnapshots is how many labeled live snapshots must arrive after
	// the challenger is trained before the verdict. Zero, the default,
	// decides on the held-out window alone.
	ShadowSnapshots int
	// PromoteMargin is the fraction by which the challenger's
	// dynamic-range error must beat the champion's to promote
	// (default 0.05): promote iff challDRE <= champDRE * (1 - margin).
	PromoteMargin float64
	// ProbationSnapshots is how many metered snapshots the freshly
	// promoted model is watched for after the swap. Zero, the default,
	// disables probation. Probation rolls back when the live RMSE exceeds
	// 2 × the shadow RMSE + 1 W; the watt of slack keeps a near-perfect
	// shadow fit from making it hair-triggered.
	ProbationSnapshots int
	// Events, when set, receives the lifecycle JSON events:
	// retrain_triggered, challenger_trained, shadow_verdict, promoted,
	// rolled_back (plus lifecycle_error on failures).
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
	if c.HeldOut <= 0 {
		c.HeldOut = 256
	}
	if c.MinTrainSnapshots <= 0 {
		c.MinTrainSnapshots = 64
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
	rt  *online.Retrainer

	mu    sync.Mutex
	state state
	// heldout holds the recent labeled snapshots; window() lists them
	// oldest first.
	heldout *mathx.Ring[Snapshot]

	sinceRetrain int
	lastRetrain  time.Time // zero until the first retrain runs
	manual       []string

	// shadow evaluation
	challenger string
	champion   string
	heldChamp  Score
	heldChall  Score
	// liveN counts the labeled snapshots ingested while shadowing: the
	// newest liveN entries of the held-out ring are the live window.
	liveN int

	// probation
	promotedVersion string
	promotedPrev    string
	shadowRMSE      float64
	probation       probAccum

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
	// Each machine's retrain ring holds its 2,048 newest labeled seconds.
	rt, err := online.NewRetrainer(cfg.Names, 2048)
	if err != nil {
		return nil, err
	}
	// lastRetrain stays zero until the first retrain actually runs: the
	// cooldown gate never blocks the first trigger after startup (the
	// min-window gate is what paces the warmup).
	return &Orchestrator{
		reg:     reg,
		eng:     eng,
		cfg:     cfg,
		rt:      rt,
		heldout: mathx.NewRing[Snapshot](cfg.HeldOut),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
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
// the held-out scoring window (whose newest entries are, while shadowing,
// the live window the verdict scores), and — during probation — the
// promoted model's live error (only snapshots the promoted version itself
// served count: requests in flight across the swap were answered by the
// old champion and say nothing about the new model). A snapshot with a
// mis-sized row or a non-finite metered total is dropped whole, before
// any buffer sees it. Counter rows are copied; callers may reuse them.
func (o *Orchestrator) Ingest(samples []online.Sample, metered []float64, estimated float64, version string) {
	if len(samples) == 0 || len(metered) != len(samples) {
		return
	}
	var actual float64
	for i, s := range samples {
		if len(s.Counters) != len(o.cfg.Names) {
			return
		}
		actual += metered[i]
	}
	if math.IsNaN(actual) || math.IsInf(actual, 0) {
		return
	}
	cp := make([]online.Sample, len(samples))
	for i, s := range samples {
		cp[i] = online.Sample{
			MachineID: s.MachineID,
			Platform:  s.Platform,
			Counters:  append([]float64(nil), s.Counters...),
		}
		// Non-finite rows are rejected (and counted) inside Add.
		_ = o.rt.Add(cp[i], metered[i]) //nolint:errcheck // width checked above
	}
	o.mu.Lock()
	o.heldout.Push(Snapshot{Samples: cp, Actual: actual})
	o.sinceRetrain++
	if o.state == stateShadowing {
		o.liveN++
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
	HeldOutSnapshots      int     `json:"held_out_snapshots"`
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
		HeldOutSnapshots:      o.heldout.Len(),
		LiveShadowSnapshots:   o.liveN,
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
// clock, which paces the cooldown between automatic retrains. Fitting and
// scoring run inside Step with the mutex released, so Ingest never blocks
// on them. Steps must not overlap: one goroutine drives them.
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
		o.mu.Unlock()
		o.emit("retrain_triggered", map[string]any{"reason": reason})
		o.train(reason)
	case stateShadowing:
		if o.liveN < o.cfg.ShadowSnapshots {
			o.mu.Unlock()
			return
		}
		o.mu.Unlock()
		o.verdict()
	case stateProbation:
		o.mu.Unlock()
		o.checkProbation()
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
	if o.heldout.Len() < o.cfg.MinTrainSnapshots {
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
func (o *Orchestrator) fail(stage string, err error) {
	o.mu.Lock()
	o.lastErr = stage + ": " + err.Error()
	o.state = stateIdle
	o.challenger = ""
	o.mu.Unlock()
	o.emit("lifecycle_error", map[string]any{"stage": stage, "error": err.Error()})
}

// train fits the challenger from the retrain buffers, admits it to the
// registry (inactive), scores the held-out window for both contenders,
// and starts counting the live window.
func (o *Orchestrator) train(reason string) {
	start := time.Now()
	cm, err := o.rt.Retrain(o.cfg.Tech, o.cfg.Spec)
	if err != nil {
		o.fail("retrain", err)
		return
	}
	champion := o.reg.ActiveVersion()
	if champion == "" {
		o.fail("retrain", fmt.Errorf("lifecycle: no active champion to challenge"))
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
		o.fail("admit", err)
		return
	}
	lcRetrains.Inc()
	champScore, challScore, err := o.scorePair(champion, version, o.window())
	if err != nil {
		o.fail("score", err)
		return
	}
	o.mu.Lock()
	o.state = stateShadowing
	o.challenger = version
	o.champion = champion
	o.heldChamp = champScore
	o.heldChall = challScore
	o.liveN = 0
	o.retrains++
	o.mu.Unlock()
	o.emit("challenger_trained", map[string]any{
		"version": version, "champion": champion,
		"technique": string(o.cfg.Tech),
		"train_ms":  float64(time.Since(start).Milliseconds()),
		"heldout":   champScore.N,
	})
}

// verdict scores both contenders on the live window, combines that with
// the held-out scores into the promotion decision, and either hot-swaps
// the challenger in or leaves the champion serving.
func (o *Orchestrator) verdict() {
	o.mu.Lock()
	version, champion := o.challenger, o.champion
	hc, hl, liveN := o.heldChamp, o.heldChall, o.liveN
	win := o.heldout.AppendTo(nil)
	o.mu.Unlock()
	if liveN < len(win) {
		win = win[len(win)-liveN:]
	}
	lc, ll, err := o.scorePair(champion, version, win)
	if err != nil {
		o.fail("score", err)
		return
	}

	champErr, challErr, rng := combinedError(hc, hl, lc, ll)
	// The live gate: the challenger must not be worse than the champion on
	// the traffic that arrived after it was trained, regardless of how the
	// held-out window reads — a corrupted label stretch in the buffers
	// makes a garbage challenger look like a perfect fit on the held-out
	// window, but it cannot fake fresh traffic. It must also score every
	// live snapshot the champion did, so both RMSEs cover the same
	// traffic. The reported error ratio follows the same logic: live when
	// there was live traffic, held-out otherwise.
	liveOK := true
	ratio := errorRatio(challErr, champErr)
	if lc.N > 0 {
		liveOK = ll.N == lc.N && ll.RMSE <= lc.RMSE+1e-12
		ratio = errorRatio(ll.RMSE, lc.RMSE)
	}
	n := hl.N + ll.N
	promote := challErr <= champErr*(1-o.cfg.PromoteMargin) && liveOK && n > 0

	lcShadowRatio.Set(ratio)
	o.emit("shadow_verdict", map[string]any{
		"champion": champion, "challenger": version,
		"promote":   promote,
		"champ_dre": champErr, "chall_dre": challErr, "ratio": ratio,
		"dynamic_range_w": rng,
		"heldout":         hc.N, "live": lc.N,
	})

	if !promote {
		o.eng.ResetDrift()
		o.mu.Lock()
		o.state = stateIdle
		o.lastVerdict = "rejected"
		o.lastRatio = ratio
		o.challenger = ""
		o.mu.Unlock()
		return
	}
	if err := o.reg.Activate(version); err != nil {
		o.fail("promote", err)
		return
	}
	lcPromotions.Inc()
	o.eng.ResetDrift()
	// The challenger's combined RMSE is the error level probation holds
	// the promoted model to.
	shadowRMSE := math.Sqrt((hl.SSE + ll.SSE) / float64(n))
	o.mu.Lock()
	o.promotions++
	o.lastVerdict = "promoted"
	o.lastRatio = ratio
	o.promotedVersion = version
	o.promotedPrev = champion
	o.shadowRMSE = shadowRMSE
	o.probation = probAccum{}
	o.challenger = ""
	if o.cfg.ProbationSnapshots > 0 {
		o.state = stateProbation
	} else {
		o.state = stateIdle
	}
	o.mu.Unlock()
	o.emit("promoted", map[string]any{
		"version": version, "previous": champion, "shadow_rmse_w": shadowRMSE,
	})
}

// checkProbation watches the promoted model's live error and rolls back
// if it regresses past the bound — without waiting for the full window
// once enough evidence has accumulated.
func (o *Orchestrator) checkProbation() {
	o.mu.Lock()
	n, sse := o.probation.n, o.probation.sse
	version, prev, shadowRMSE := o.promotedVersion, o.promotedPrev, o.shadowRMSE
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
				o.fail("rollback", err)
				return
			}
			prev = to
			lcRollbacks.Inc()
		}
		o.eng.ResetDrift()
		o.mu.Lock()
		o.rollbacks++
		o.state = stateIdle
		o.lastVerdict = "rolled_back"
		o.mu.Unlock()
		o.emit("rolled_back", map[string]any{
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

// window returns the held-out snapshots oldest-first (lag-bearing specs
// need chronological scoring).
func (o *Orchestrator) window() []Snapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.heldout.AppendTo(nil)
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

// emit sends one lifecycle event when a sink is configured.
func (o *Orchestrator) emit(event string, fields map[string]any) {
	if o.cfg.Events != nil {
		o.cfg.Events.Emit(event, fields) //nolint:errcheck // telemetry only
	}
}

// combinedError merges each contender's held-out and live scores (hc and
// lc for the champion, hl and ll for the challenger) into one
// dynamic-range error per contender. Both contenders score the same
// actuals, so the shared dynamic range — the champion's — makes DRE and
// RMSE order identically; DRE is still reported because it is the
// paper's platform-independent measure.
func combinedError(hc, hl, lc, ll Score) (champErr, challErr, rng float64) {
	champN, challN := hc.N+lc.N, hl.N+ll.N
	if champN == 0 || challN == 0 {
		return math.Inf(1), math.Inf(1), 0
	}
	champRMSE := math.Sqrt((hc.SSE + lc.SSE) / float64(champN))
	challRMSE := math.Sqrt((hl.SSE + ll.SSE) / float64(challN))
	minA, maxA := math.Inf(1), math.Inf(-1)
	for _, sc := range [2]Score{hc, lc} {
		if sc.N > 0 {
			minA, maxA = math.Min(minA, sc.MinActual), math.Max(maxA, sc.MaxActual)
		}
	}
	rng = maxA - minA
	if rng > 0 {
		return champRMSE / rng, challRMSE / rng, rng
	}
	return champRMSE, challRMSE, 0
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
