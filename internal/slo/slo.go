// Package slo turns the serving path's label and latency streams into
// live service-level objectives. A Tracker keeps rolling windows of
// estimation accuracy (DRE, the paper's Eq. 6 metric, over the window's
// observed dynamic range) and request latency, evaluates them against
// configured objectives with a fast/slow multi-window burn-rate rule,
// and emits slo_violation / slo_recovered events plus chaos_slo_*
// gauges on transitions.
//
// Evaluation is count-driven — every EvalEvery observations of the
// relevant stream — not wall-clock-driven, so tests and replays are
// deterministic: the same observation sequence always produces the same
// event sequence.
package slo

import (
	"math"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config sets the objectives and window geometry for a Tracker.
type Config struct {
	// DREObjective is the maximum acceptable rolling cluster DRE
	// (dynamic-range error, rmse/range). 0 disables the accuracy SLO.
	DREObjective float64
	// P99Objective is the maximum acceptable request latency at the
	// 99th percentile. 0 disables the latency SLO.
	P99Objective time.Duration
	// FastWindow and SlowWindow are observation counts for the
	// multi-window burn evaluation. Defaults: 32 and 128.
	FastWindow int
	SlowWindow int
	// EvalEvery evaluates the burn rule every N observations of each
	// stream. Default: FastWindow/4, minimum 1.
	EvalEvery int
	// Events receives slo_violation / slo_recovered; nil drops them.
	Events *obs.EventSink
	// Reg carries the chaos_slo_* gauges; nil uses obs.Default().
	Reg *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.FastWindow <= 0 {
		c.FastWindow = 32
	}
	if c.SlowWindow < c.FastWindow {
		c.SlowWindow = 4 * c.FastWindow
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = c.FastWindow / 4
		if c.EvalEvery < 1 {
			c.EvalEvery = 1
		}
	}
	if c.Reg == nil {
		c.Reg = obs.Default()
	}
	return c
}

// pairRing is a fixed ring of (estimate, metered) pairs.
type pairRing struct {
	est, met []float64
	idx, n   int
}

func newPairRing(cap int) *pairRing {
	return &pairRing{est: make([]float64, cap), met: make([]float64, cap)}
}

func (r *pairRing) push(e, m float64) {
	r.est[r.idx], r.met[r.idx] = e, m
	r.idx = (r.idx + 1) % len(r.est)
	if r.n < len(r.est) {
		r.n++
	}
}

// dre returns the window's dynamic-range error: rmse over the last
// min(w, n) pairs divided by the observed metered range. A window whose
// metered power never moves (range ~ 0) cannot be scored on a relative
// scale; it reports 0 so a flat, accurate idle period never pages.
func (r *pairRing) dre(w int) float64 {
	n := r.n
	if w < n {
		n = w
	}
	if n == 0 {
		return 0
	}
	var sq, lo, hi float64
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		j := (r.idx - 1 - i + len(r.est)) % len(r.est)
		d := r.est[j] - r.met[j]
		sq += d * d
		if r.met[j] < lo {
			lo = r.met[j]
		}
		if r.met[j] > hi {
			hi = r.met[j]
		}
	}
	rng := hi - lo
	if rng < 1e-9 {
		return 0
	}
	return math.Sqrt(sq/float64(n)) / rng
}

// sloState is the per-objective violation state machine.
type sloState struct {
	name      string
	violating bool
	trips     int
	recovers  int
}

// Tracker evaluates live SLOs from the serving path's observation
// streams. It implements serve.Observer. All methods are safe for
// concurrent use.
type Tracker struct {
	cfg Config

	mu       sync.Mutex
	cluster  *pairRing
	machines map[string]*pairRing
	latFast  *obs.Window // request seconds, last FastWindow requests
	latSlow  *obs.Window // request seconds, last SlowWindow requests
	labeled  uint64      // labeled observations seen
	requests uint64      // requests seen
	version  string      // last model version observed

	accuracy sloState
	latency  sloState
}

// NewTracker builds a Tracker; zero-valued objectives disable the
// corresponding SLO but observations are still windowed and exported.
func NewTracker(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	t := &Tracker{
		cfg:      cfg,
		cluster:  newPairRing(cfg.SlowWindow),
		machines: make(map[string]*pairRing),
		latFast:  obs.NewWindow(cfg.FastWindow),
		latSlow:  obs.NewWindow(cfg.SlowWindow),
		accuracy: sloState{name: "accuracy"},
		latency:  sloState{name: "latency"},
	}
	if cfg.DREObjective > 0 {
		cfg.Reg.Gauge("chaos_slo_objective", obs.Labels{"slo": "accuracy"}).Set(cfg.DREObjective)
	}
	if cfg.P99Objective > 0 {
		cfg.Reg.Gauge("chaos_slo_objective", obs.Labels{"slo": "latency"}).Set(cfg.P99Objective.Seconds())
	}
	return t
}

// ObserveRequest feeds one served request into the latency SLO.
// Non-2xx statuses count as latency-budget burn regardless of duration:
// a shed or failed request is never "within objective".
func (t *Tracker) ObserveRequest(endpoint string, d time.Duration, status int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	secs := d.Seconds()
	if status < 200 || status >= 300 {
		// Push it past the objective so errors burn budget however
		// quickly they failed (finite, so event JSON stays valid).
		if floor := 2 * t.cfg.P99Objective.Seconds(); secs < floor {
			secs = floor
		}
	}
	t.latFast.Observe(secs)
	t.latSlow.Observe(secs)
	t.requests++
	if t.cfg.P99Objective > 0 && t.requests%uint64(t.cfg.EvalEvery) == 0 {
		t.evalLatencyLocked()
	}
}

// ObserveLabeled feeds one metered snapshot into the accuracy SLO: the
// cluster pair plus one pair per machine.
func (t *Tracker) ObserveLabeled(machineIDs []string, estimated, metered []float64, clusterEst float64, version string) {
	if t == nil || len(machineIDs) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.version = version
	var meteredSum float64
	for i, id := range machineIDs {
		if i >= len(estimated) || i >= len(metered) {
			break
		}
		meteredSum += metered[i]
		mr := t.machines[id]
		if mr == nil {
			mr = newPairRing(t.cfg.SlowWindow)
			t.machines[id] = mr
		}
		mr.push(estimated[i], metered[i])
		t.cfg.Reg.Gauge("chaos_slo_machine_dre", obs.Labels{"machine": id}).Set(mr.dre(t.cfg.FastWindow))
	}
	t.cluster.push(clusterEst, meteredSum)
	t.labeled++
	if t.cfg.DREObjective > 0 && t.labeled%uint64(t.cfg.EvalEvery) == 0 {
		t.evalAccuracyLocked()
	}
}

func (t *Tracker) evalAccuracyLocked() {
	fast := t.cluster.dre(t.cfg.FastWindow)
	slow := t.cluster.dre(t.cfg.SlowWindow)
	burnFast := fast / t.cfg.DREObjective
	burnSlow := slow / t.cfg.DREObjective
	t.cfg.Reg.Gauge("chaos_slo_dre", obs.Labels{"window": "fast"}).Set(fast)
	t.cfg.Reg.Gauge("chaos_slo_dre", obs.Labels{"window": "slow"}).Set(slow)
	t.transition(&t.accuracy, burnFast, burnSlow, map[string]any{
		"dre_fast":  fast,
		"dre_slow":  slow,
		"objective": t.cfg.DREObjective,
		"version":   t.version,
		"machine":   t.worstMachineLocked(),
	})
}

func (t *Tracker) evalLatencyLocked() {
	objective := t.cfg.P99Objective.Seconds()
	// Budget: 1% of requests may exceed the p99 objective.
	const budget = 0.01
	p99Fast := t.latFast.Quantile(0.99)
	burnFast := t.latFast.FracAbove(objective) / budget
	burnSlow := t.latSlow.FracAbove(objective) / budget
	t.cfg.Reg.Gauge("chaos_slo_p99_seconds", nil).Set(p99Fast)
	t.transition(&t.latency, burnFast, burnSlow, map[string]any{
		"p99_s":     p99Fast,
		"objective": objective,
		"version":   t.version,
	})
}

// transition runs the multi-window burn rule for one SLO: violation
// when BOTH the fast and slow windows burn at a rate of 1 or more (the
// fast window reacts, the slow window confirms it is not a blip);
// recovery when BOTH drop back under 1. A burn of 1 is observed DRE at
// the objective, or exactly 1% of requests over the p99 objective.
// Events fire only on edges.
func (t *Tracker) transition(st *sloState, burnFast, burnSlow float64, fields map[string]any) {
	t.cfg.Reg.Gauge("chaos_slo_burn", obs.Labels{"slo": st.name, "window": "fast"}).Set(burnFast)
	t.cfg.Reg.Gauge("chaos_slo_burn", obs.Labels{"slo": st.name, "window": "slow"}).Set(burnSlow)
	violating := burnFast >= 1 && burnSlow >= 1
	recovered := burnFast < 1 && burnSlow < 1
	var event string
	switch {
	case violating && !st.violating:
		st.violating = true
		st.trips++
		event = "slo_violation"
	case recovered && st.violating:
		st.violating = false
		st.recovers++
		event = "slo_recovered"
	default:
		return
	}
	gauge := 0.0
	if st.violating {
		gauge = 1.0
	}
	t.cfg.Reg.Gauge("chaos_slo_violation", obs.Labels{"slo": st.name}).Set(gauge)
	if t.cfg.Events != nil {
		f := map[string]any{"slo": st.name, "burn_fast": burnFast, "burn_slow": burnSlow}
		for k, v := range fields {
			f[k] = v
		}
		t.cfg.Events.Emit(event, f) //nolint:errcheck // telemetry only
	}
}

// worstMachineLocked names the machine with the highest fast-window DRE.
func (t *Tracker) worstMachineLocked() string {
	worst, worstDRE := "", -1.0
	for id, r := range t.machines {
		if d := r.dre(t.cfg.FastWindow); d > worstDRE {
			worst, worstDRE = id, d
		}
	}
	return worst
}

// Status is a point-in-time view of the tracker for tests and the
// version endpoint.
type Status struct {
	ClusterDREFast   float64            `json:"cluster_dre_fast"`
	ClusterDRESlow   float64            `json:"cluster_dre_slow"`
	MachineDRE       map[string]float64 `json:"machine_dre"`
	P99Fast          time.Duration      `json:"p99_fast_ns"`
	AccuracyViolated bool               `json:"accuracy_violated"`
	LatencyViolated  bool               `json:"latency_violated"`
	AccuracyTrips    int                `json:"accuracy_trips"`
	AccuracyRecovers int                `json:"accuracy_recovers"`
	LatencyTrips     int                `json:"latency_trips"`
	Labeled          uint64             `json:"labeled"`
	Requests         uint64             `json:"requests"`
}

// Snapshot returns the current SLO state.
func (t *Tracker) Snapshot() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	md := make(map[string]float64, len(t.machines))
	for id, r := range t.machines {
		md[id] = r.dre(t.cfg.FastWindow)
	}
	p99 := t.latFast.Quantile(0.99)
	return Status{
		ClusterDREFast:   t.cluster.dre(t.cfg.FastWindow),
		ClusterDRESlow:   t.cluster.dre(t.cfg.SlowWindow),
		MachineDRE:       md,
		P99Fast:          time.Duration(p99 * float64(time.Second)),
		AccuracyViolated: t.accuracy.violating,
		LatencyViolated:  t.latency.violating,
		AccuracyTrips:    t.accuracy.trips,
		AccuracyRecovers: t.accuracy.recovers,
		LatencyTrips:     t.latency.trips,
		Labeled:          t.labeled,
		Requests:         t.requests,
	}
}
