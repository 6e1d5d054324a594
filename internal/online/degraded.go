package online

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/mathx"
	"repro/internal/obs"
)

// Degraded-mode instruments: how much of the Eq. 5 cluster sum is backed
// by fresh samples, and how many machines have gone quiet.
var (
	machinesStaleGauge = obs.Default().Gauge("chaos_machines_stale", nil)
	machinesDownGauge  = obs.Default().Gauge("chaos_machines_down", nil)
	coverageGauge      = obs.Default().Gauge("chaos_estimate_coverage_ratio", nil)
	imputedTotal       = obs.Default().Counter("chaos_imputed_counters_total", nil)
)

// Health classifies one machine's standing in a degraded-mode estimate.
type Health string

const (
	// HealthLive means a clean sample arrived this second.
	HealthLive Health = "live"
	// HealthImputed means a sample arrived with non-finite counters that
	// were imputed from recent history before prediction.
	HealthImputed Health = "imputed"
	// HealthStale means no usable sample for up to TTLSeconds; the last
	// estimate is held with decay.
	HealthStale Health = "stale"
	// HealthDown means the machine has been silent past the TTL (or was
	// never seen); it contributes zero to the cluster sum.
	HealthDown Health = "down"
)

// DegradedConfig tunes staleness, decay, and imputation behavior.
type DegradedConfig struct {
	// TTLSeconds is how long a silent machine's last estimate is held
	// (with decay) before the machine is declared down. Default 10.
	TTLSeconds int
	// DecayPerSecond multiplies the held estimate once per silent second,
	// shrinking it toward zero so a long outage cannot pin the cluster
	// sum at its pre-outage level. Must be in (0, 1]. Default 0.97.
	DecayPerSecond float64
	// ImputeWindow is how many recent clean rows are kept per machine for
	// median imputation of corrupt counters. Default 8.
	ImputeWindow int
}

// withDefaults fills zero values and validates the rest.
func (c DegradedConfig) withDefaults() (DegradedConfig, error) {
	if c.TTLSeconds == 0 {
		c.TTLSeconds = 10
	}
	if c.DecayPerSecond == 0 {
		c.DecayPerSecond = 0.97
	}
	if c.ImputeWindow == 0 {
		c.ImputeWindow = 8
	}
	if c.TTLSeconds < 0 {
		return c, fmt.Errorf("online: negative staleness TTL %d", c.TTLSeconds)
	}
	if c.DecayPerSecond < 0 || c.DecayPerSecond > 1 {
		return c, fmt.Errorf("online: decay per second %g outside (0, 1]", c.DecayPerSecond)
	}
	if c.ImputeWindow < 1 {
		return c, fmt.Errorf("online: impute window %d must be positive", c.ImputeWindow)
	}
	return c, nil
}

// DegradedEstimate is one second's fault-tolerant cluster estimate: the
// Eq. 5 sum plus per-machine health and the fraction of the sum backed by
// fresh samples, so callers know how much of it is trustworthy.
type DegradedEstimate struct {
	ClusterWatts float64
	PerMachine   map[string]float64
	Health       map[string]Health
	// Coverage is the fraction of machines whose contribution comes from
	// a sample taken this second (live or imputed). Held-with-decay and
	// down machines are excluded.
	Coverage float64
}

// DegradedPredictor wraps a Predictor with per-machine staleness
// tracking, hold-last-estimate-with-decay for briefly silent machines,
// and median/last-value imputation for individually corrupt counters —
// the behavior a deployed Eq. 5 cluster model needs when collectors
// flake, meters disappear, and machines reboot mid-stream. It never
// returns a NaN/Inf estimate.
type DegradedPredictor struct {
	mu       sync.Mutex
	pred     *Predictor
	cfg      DegradedConfig
	machines []string
	known    map[string]bool
	lastSeen map[string]int
	lastEst  map[string]float64
	recent   map[string]*mathx.Ring[[]float64] // recent clean rows per machine
}

// NewDegradedPredictor builds a degraded-mode wrapper over p for the
// fixed machine set machineIDs (the cluster the model serves; a machine
// missing from a step's samples is what staleness tracking detects).
func NewDegradedPredictor(p *Predictor, machineIDs []string, cfg DegradedConfig) (*DegradedPredictor, error) {
	if p == nil {
		return nil, fmt.Errorf("online: nil predictor")
	}
	if len(machineIDs) == 0 {
		return nil, fmt.Errorf("online: degraded predictor needs at least one machine")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &DegradedPredictor{
		pred:     p,
		cfg:      cfg,
		machines: append([]string(nil), machineIDs...),
		known:    make(map[string]bool, len(machineIDs)),
		lastSeen: map[string]int{},
		lastEst:  map[string]float64{},
		recent:   map[string]*mathx.Ring[[]float64]{},
	}
	for _, id := range machineIDs {
		if id == "" {
			return nil, fmt.Errorf("online: empty machine ID")
		}
		if d.known[id] {
			return nil, fmt.Errorf("online: duplicate machine ID %q", id)
		}
		d.known[id] = true
	}
	return d, nil
}

// Step consumes second t's available samples (any subset of the machine
// set, possibly corrupt) and returns the degraded-mode estimate. Unlike
// Predictor.Step it accepts an empty slice: with every machine silent the
// estimate decays toward zero instead of erroring out.
func (d *DegradedPredictor) Step(t int, samples []Sample) (*DegradedEstimate, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	byID := make(map[string]*Sample, len(samples))
	for i := range samples {
		s := &samples[i]
		if !d.known[s.MachineID] {
			return nil, fmt.Errorf("online: degraded predictor got sample from unknown machine %q", s.MachineID)
		}
		byID[s.MachineID] = s
	}
	est := &DegradedEstimate{
		PerMachine: make(map[string]float64, len(d.machines)),
		Health:     make(map[string]Health, len(d.machines)),
	}
	fresh, stale, down := 0, 0, 0
	for _, id := range d.machines {
		w, h, err := d.estimateOne(id, t, byID[id])
		if err != nil {
			return nil, err
		}
		switch h {
		case HealthLive, HealthImputed:
			fresh++
			d.lastSeen[id] = t
			d.lastEst[id] = w
		case HealthStale:
			stale++
		case HealthDown:
			down++
		}
		est.PerMachine[id] = w
		est.Health[id] = h
		est.ClusterWatts += w
	}
	est.Coverage = float64(fresh) / float64(len(d.machines))
	machinesStaleGauge.Set(float64(stale))
	machinesDownGauge.Set(float64(down))
	coverageGauge.Set(est.Coverage)
	estimateGauge.Set(est.ClusterWatts)
	estimatesTotal.Inc()
	return est, nil
}

// estimateOne produces one machine's contribution and health for second
// t. s is nil when no sample arrived.
func (d *DegradedPredictor) estimateOne(id string, t int, s *Sample) (float64, Health, error) {
	if s != nil {
		if finiteRow(s.Counters) {
			w, err := d.pred.predictOne(*s)
			if err != nil {
				return 0, "", err
			}
			if finite(w) {
				d.pushRecent(id, s.Counters)
				return w, HealthLive, nil
			}
			// A pathological model output is treated like a missing
			// sample rather than poisoning the sum.
			invalidSamples.Inc()
		} else if imp, n := d.impute(id, s.Counters); imp != nil {
			s2 := *s
			s2.Counters = imp
			w, err := d.pred.predictOne(s2)
			if err != nil {
				return 0, "", err
			}
			if finite(w) {
				imputedTotal.Add(float64(n))
				return w, HealthImputed, nil
			}
			invalidSamples.Inc()
		} else {
			// Corrupt with no history to impute from: counts as invalid,
			// falls through to the staleness path.
			invalidSamples.Inc()
		}
	}
	w, h := d.hold(id, t)
	return w, h, nil
}

// hold returns the stale/down contribution for a machine with no usable
// sample at second t: the last estimate decayed by silent age inside the
// TTL, zero beyond it.
func (d *DegradedPredictor) hold(id string, t int) (float64, Health) {
	seen, ok := d.lastSeen[id]
	if !ok {
		return 0, HealthDown
	}
	age := t - seen
	if age < 0 {
		age = 0
	}
	if age > d.cfg.TTLSeconds {
		return 0, HealthDown
	}
	return d.lastEst[id] * math.Pow(d.cfg.DecayPerSecond, float64(age)), HealthStale
}

// impute replaces non-finite entries with the median of the machine's
// recent clean values for that counter (the last value when history is a
// single row). Returns nil when there is no history at all.
func (d *DegradedPredictor) impute(id string, row []float64) ([]float64, int) {
	recent := d.recent[id]
	if recent == nil {
		return nil, 0
	}
	out := append([]float64(nil), row...)
	n := 0
	vals := make([]float64, 0, recent.Len())
	for j, v := range out {
		if finite(v) {
			continue
		}
		vals = vals[:0]
		for i := 0; i < recent.Len(); i++ {
			vals = append(vals, recent.At(i)[j])
		}
		sort.Float64s(vals)
		out[j] = vals[len(vals)/2]
		n++
	}
	return out, n
}

// pushRecent records a clean row in the machine's imputation window.
func (d *DegradedPredictor) pushRecent(id string, row []float64) {
	r := d.recent[id]
	if r == nil {
		r = mathx.NewRing[[]float64](d.cfg.ImputeWindow)
		d.recent[id] = r
	}
	r.Push(append([]float64(nil), row...))
}

// finite reports whether v is a usable float.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
