// Package online is the deployment path of CHAOS: streaming cluster power
// estimation from live OS counter samples, residual monitoring against an
// occasionally-available meter, drift detection, and retraining — the
// "online power prediction" use the paper builds its models for, plus the
// adaptation loop its automatic-framework motivation calls for ("rapidly
// and easily build new models for applications, thus adapting to new
// characteristics and workloads", §IV-A).
package online

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/counters"
	"repro/internal/mathx"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Streaming-path instruments, resolved once at import so the per-second
// loop pays only atomic updates.
var (
	predictLatency = obs.Default().Histogram("chaos_predict_seconds", nil, obs.ExpBuckets(1e-7, 4, 14))
	estimateGauge  = obs.Default().Gauge("chaos_cluster_watts_estimate", nil)
	// estimatesTotal counts cluster estimates, one per Step, not samples:
	// PredictBatch also replays held-out windows for lifecycle scoring,
	// and serving counts its samples in chaos_serve_samples_total.
	estimatesTotal = obs.Default().Counter("chaos_estimates_total", nil)
	residualHist   = obs.Default().Histogram("chaos_residual_watts", nil, obs.LinearBuckets(0, 2, 25))
	residualEWMA   = obs.Default().Gauge("chaos_residual_ewma_baseline_units", nil)
	driftAlarms    = obs.Default().Counter("chaos_drift_alarms_total", nil)
	retrainsTotal  = obs.Default().Counter("chaos_retrains_total", nil)
	invalidSamples = obs.Default().Counter("chaos_invalid_samples_total", nil)
)

// finiteRow reports whether every value in the row is finite — the guard
// that keeps NaN/Inf counter corruption out of Model.Predict and the
// chaos_cluster_watts_estimate gauge.
func finiteRow(row []float64) bool {
	for _, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Sample is one machine's counter vector for one second, in the counter
// order the Predictor was configured with.
type Sample struct {
	MachineID string
	Platform  string
	Counters  []float64
}

// Estimate is the output of one prediction step.
type Estimate struct {
	ClusterWatts float64
	PerMachine   map[string]float64
}

// Predictor turns per-second counter samples into power estimates using a
// fitted cluster model. It keeps per-machine frequency history, across
// SetModel too, so feature specs with lagged inputs work in streaming
// mode. A Predictor has one owner goroutine (a serve shard worker, a
// lifecycle window replay, a streaming loop, or a DegradedPredictor
// under its own mutex) and takes no lock of its own.
type Predictor struct {
	model *models.ClusterModel
	// names is the incoming counter order; indexes below are derived
	// from it per platform spec.
	names   []string
	byName  map[string]int
	history map[string]*mathx.Ring[float64] // machineID -> last maxLagWindow freq values
}

// NewPredictor builds a streaming predictor over the cluster model.
// names is the counter order of incoming Sample.Counters (typically the
// full registry order from the collector).
func NewPredictor(model *models.ClusterModel, names []string) (*Predictor, error) {
	p := &Predictor{
		names:   append([]string(nil), names...),
		byName:  map[string]int{},
		history: map[string]*mathx.Ring[float64]{},
	}
	for i, n := range p.names {
		p.byName[n] = i
	}
	if err := p.SetModel(model); err != nil {
		return nil, err
	}
	return p, nil
}

// SetModel binds another cluster model (a hot-swap or a retrain) with
// NewPredictor's checks, keeping the bound one on error. The frequency
// history stays, so lagged inputs do not cold-start.
func (p *Predictor) SetModel(model *models.ClusterModel) error {
	if model == nil || len(model.ByPlatform) == 0 {
		return fmt.Errorf("online: nil or empty cluster model")
	}
	for platform, mm := range model.ByPlatform {
		for _, c := range mm.Spec.Counters {
			if _, ok := p.byName[c]; !ok {
				return fmt.Errorf("online: model for %s needs counter %q not present in the stream", platform, c)
			}
		}
	}
	p.model = model
	return nil
}

// maxLagWindow bounds the frequency history we need to keep.
const maxLagWindow = 16

// Step consumes one second of samples (one per machine) and returns the
// cluster estimate. Samples carrying NaN/Inf counters (a corrupt
// collector read) are skipped and counted in chaos_invalid_samples_total
// rather than poisoning the cluster sum; an error is returned only if no
// valid sample remains. Structural problems — unknown platform, wrong
// counter count — are still hard errors.
func (p *Predictor) Step(samples []Sample) (*Estimate, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("online: no samples")
	}
	start := time.Now()
	defer func() { predictLatency.Observe(time.Since(start).Seconds()) }()
	est := &Estimate{PerMachine: make(map[string]float64, len(samples))}
	rejected := 0
	for _, s := range samples {
		if !finiteRow(s.Counters) {
			invalidSamples.Inc()
			rejected++
			continue
		}
		w, err := p.predict(s)
		if err != nil {
			return nil, err
		}
		est.PerMachine[s.MachineID] = w
		est.ClusterWatts += w
	}
	if len(est.PerMachine) == 0 {
		return nil, fmt.Errorf("online: all %d samples rejected (non-finite counters)", rejected)
	}
	estimateGauge.Set(est.ClusterWatts)
	estimatesTotal.Inc()
	return est, nil
}

// predict validates one sample and predicts its machine's power,
// maintaining the machine's lag history.
func (p *Predictor) predict(s Sample) (float64, error) {
	mm, ok := p.model.ByPlatform[s.Platform]
	if !ok {
		return 0, fmt.Errorf("online: no machine model for platform %q", s.Platform)
	}
	if len(s.Counters) != len(p.names) {
		return 0, fmt.Errorf("online: sample from %s has %d counters, want %d", s.MachineID, len(s.Counters), len(p.names))
	}
	row, err := p.buildRow(mm.Spec, s)
	if err != nil {
		return 0, err
	}
	return mm.Model.Predict(row), nil
}

// BatchItem is one sample's outcome within a batched prediction.
type BatchItem struct {
	Watts float64
	Err   error
}

// PredictBatch predicts each sample in order under a single latency
// observation — the serving layer's amortized hot path. Unlike Step,
// per-sample problems (unknown platform, wrong counter count, non-finite
// counters) are reported per item and never fail the rest of the batch;
// samples may belong to different machines, the same machine, or
// different clusters of requests entirely.
func (p *Predictor) PredictBatch(samples []Sample) []BatchItem {
	start := time.Now()
	defer func() { predictLatency.Observe(time.Since(start).Seconds()) }()
	out := make([]BatchItem, len(samples))
	for i := range samples {
		s := samples[i]
		if !finiteRow(s.Counters) {
			invalidSamples.Inc()
			out[i].Err = fmt.Errorf("online: sample from %s has non-finite counters", s.MachineID)
			continue
		}
		w, err := p.predict(s)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Watts = w
	}
	return out
}

// buildRow assembles the model input for one sample, then records the
// sample's frequency in its machine's history whenever the stream carries
// the counter, whether or not the bound model reads lags.
func (p *Predictor) buildRow(spec models.FeatureSpec, s Sample) ([]float64, error) {
	row := make([]float64, 0, spec.NumInputs())
	for _, c := range spec.Counters {
		row = append(row, s.Counters[p.byName[c]])
	}
	hist := p.history[s.MachineID]
	fi, hasFreq := p.byName[counters.CPUFreqCore0]
	if w := spec.NumInputs() - len(spec.Counters); w > 0 {
		if spec.FreqInputIndex() < 0 {
			return nil, fmt.Errorf("online: spec %q has lagged inputs but no frequency counter", spec.Name)
		}
		for k := 1; k <= w; k++ {
			lag := s.Counters[fi] // cold start: clamp to current
			if hist != nil && k <= hist.Len() {
				lag = hist.At(hist.Len() - k)
			}
			row = append(row, lag)
		}
	}
	if hasFreq {
		if hist == nil {
			hist = mathx.NewRing[float64](maxLagWindow)
			p.history[s.MachineID] = hist
		}
		hist.Push(s.Counters[fi])
	}
	return row, nil
}

// Monitor tracks prediction residuals against metered power and raises a
// drift signal when the error level departs from the trained regime — the
// cue to rebuild the model for a new workload.
type Monitor struct {
	mu sync.Mutex
	// baseline is the expected residual scale (e.g. the training rMSE).
	baseline float64
	// threshold is the CUSUM alarm level in baseline units.
	threshold float64
	// slack is the CUSUM drift allowance in baseline units.
	slack float64

	cusum   float64
	ewma    float64
	alpha   float64
	n       int
	drifted bool
}

// NewMonitor creates a residual monitor. baselineRMSE is the model's
// validated error scale; threshold (in multiples of the baseline,
// typically 8–32) sets alarm sensitivity.
func NewMonitor(baselineRMSE, threshold float64) (*Monitor, error) {
	if baselineRMSE <= 0 {
		return nil, fmt.Errorf("online: baseline rMSE must be positive, got %g", baselineRMSE)
	}
	if threshold <= 0 {
		threshold = 16
	}
	return &Monitor{
		baseline:  baselineRMSE,
		threshold: threshold,
		slack:     0.5,
		alpha:     0.05,
	}, nil
}

// Observe feeds one prediction/measurement pair. It returns true if the
// observation tripped the drift alarm.
func (m *Monitor) Observe(pred, actual float64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	residualHist.Observe(math.Abs(pred - actual))
	r := math.Abs(pred-actual) / m.baseline
	m.n++
	m.ewma = (1-m.alpha)*m.ewma + m.alpha*r
	residualEWMA.Set(m.ewma)
	// One-sided CUSUM on the standardized residual magnitude: grows when
	// errors systematically exceed (1 + slack) baselines.
	m.cusum += r - 1 - m.slack
	if m.cusum < 0 {
		m.cusum = 0
	}
	if m.cusum > m.threshold && !m.drifted {
		m.drifted = true
		driftAlarms.Inc()
	}
	return m.drifted
}

// Drifted reports whether the alarm has fired since the last Reset.
func (m *Monitor) Drifted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.drifted
}

// EWMA returns the smoothed residual level in baseline units.
func (m *Monitor) EWMA() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ewma
}

// Observations returns the number of pairs observed.
func (m *Monitor) Observations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// ResetDrift clears the alarm and statistics (call after a retrain
// resolves it). With Drifted it makes a Monitor a lifecycle engine.
func (m *Monitor) ResetDrift() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cusum, m.ewma, m.n = 0, 0, 0
	m.drifted = false
}

// Retrainer accumulates recent labeled samples (counters + metered power)
// per machine and rebuilds the cluster model on demand.
type Retrainer struct {
	mu       sync.Mutex
	names    []string
	capacity int
	buffers  map[string]*mathx.Ring[labeled] // machineID -> recent samples
	platform map[string]string
}

// labeled is one buffered second: a private copy of the counter row,
// never mutated once stored, so copies of a buffer may share it, and its
// metered watts.
type labeled struct {
	row   []float64
	watts float64
}

// NewRetrainer buffers up to capacity seconds per machine.
func NewRetrainer(names []string, capacity int) (*Retrainer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("online: retrainer capacity must be positive, got %d", capacity)
	}
	return &Retrainer{
		names:    append([]string(nil), names...),
		capacity: capacity,
		buffers:  map[string]*mathx.Ring[labeled]{},
		platform: map[string]string{},
	}, nil
}

// Add records one labeled second from a machine. Samples with non-finite
// counters or a non-finite meter reading are skipped (and counted in
// chaos_invalid_samples_total) so a corrupt second cannot poison a later
// retraining fit.
func (rt *Retrainer) Add(s Sample, meteredWatts float64) error {
	if len(s.Counters) != len(rt.names) {
		return fmt.Errorf("online: sample has %d counters, want %d", len(s.Counters), len(rt.names))
	}
	if !finiteRow(s.Counters) || math.IsNaN(meteredWatts) || math.IsInf(meteredWatts, 0) {
		invalidSamples.Inc()
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b := rt.buffers[s.MachineID]
	if b == nil {
		b = mathx.NewRing[labeled](rt.capacity)
		rt.buffers[s.MachineID] = b
	}
	rt.platform[s.MachineID] = s.Platform
	b.Push(labeled{append([]float64(nil), s.Counters...), meteredWatts})
	return nil
}

// Buffered returns the number of labeled seconds currently held for a
// machine.
func (rt *Retrainer) Buffered(machineID string) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b := rt.buffers[machineID]
	if b == nil {
		return 0
	}
	return b.Len()
}

// Retrain fits a fresh cluster model of the given technique and spec from
// the buffered samples, pooling machines per platform like the offline
// pipeline does. The buffers are copied oldest-first under the lock and
// fitted without it, so Add never waits for a fit.
func (rt *Retrainer) Retrain(tech models.Technique, spec models.FeatureSpec) (*models.ClusterModel, error) {
	span := obs.StartSpan("online.retrain")
	defer span.End()
	type buffered struct {
		id, platform string
		rows         []labeled // oldest first
	}
	rt.mu.Lock()
	bufs := make([]buffered, 0, len(rt.buffers))
	for id, b := range rt.buffers {
		bufs = append(bufs, buffered{id, rt.platform[id], b.AppendTo(nil)})
	}
	rt.mu.Unlock()
	// Machine-ID order fixes the order of each platform's pooled traces,
	// so the same buffers always fit the same model.
	sort.Slice(bufs, func(i, j int) bool { return bufs[i].id < bufs[j].id })
	// A machine with fewer rows than the design width would make the
	// normal equations rank-deficient and the fit degenerate (an exact
	// interpolation of noise at best; regress.OLS itself demands strictly
	// more rows than parameters). Fail fast with the machine named rather
	// than hand a garbage model or a cryptic solver error to the caller.
	minRows := spec.NumInputs() + 2
	byPlatform := map[string][]*trace.Trace{}
	for _, b := range bufs {
		if len(b.rows) == 0 {
			continue
		}
		if len(b.rows) < minRows {
			return nil, fmt.Errorf("online: machine %s has %d buffered samples, need at least %d (features + intercept + 1) to retrain",
				b.id, len(b.rows), minRows)
		}
		builder := trace.NewBuilder(b.platform, "online", b.id, 0, rt.names, 0)
		for _, l := range b.rows {
			if err := builder.Add(l.row, l.watts, l.watts); err != nil {
				return nil, err
			}
		}
		t, err := builder.Build()
		if err != nil {
			return nil, err
		}
		byPlatform[b.platform] = append(byPlatform[b.platform], t)
	}
	if len(byPlatform) == 0 {
		return nil, fmt.Errorf("online: no buffered samples to retrain from")
	}
	var mms []*models.MachineModel
	for p, ts := range byPlatform {
		mm, err := models.FitMachineModel(tech, ts, spec,
			models.FitOptions{FreqCol: spec.FreqInputIndex(), MaxKnots: 8})
		if err != nil {
			return nil, fmt.Errorf("online: retraining %s: %w", p, err)
		}
		mms = append(mms, mm)
	}
	cm, err := models.NewClusterModel(mms...)
	if err == nil {
		retrainsTotal.Inc()
	}
	return cm, err
}
