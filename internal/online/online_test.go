package online

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/trace"
)

// fixture builds a trained cluster model plus streaming samples from a
// simulated Core2 cluster: run 0 trains, run 1 streams.
type fixture struct {
	model   *models.ClusterModel
	names   []string
	streams []*trace.Trace // test run traces
	rmse    float64
}

func buildFixture(t *testing.T, spec models.FeatureSpec, workloads []string) *fixture {
	t.Helper()
	ds, err := core.Collect("Core2", 2, workloads, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	traces := ds.ByWorkload[workloads[0]]
	byRun := trace.ByRun(traces)
	var train []*trace.Trace
	for _, tr := range byRun[0] {
		train = append(train, trace.Subsample(tr, 2))
	}
	mm, err := models.FitMachineModel(models.TechQuadratic, train, spec,
		models.FitOptions{FreqCol: spec.FreqInputIndex(), MaxKnots: 8})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := models.NewClusterModel(mm)
	if err != nil {
		t.Fatal(err)
	}
	// Training-regime RMSE for the monitor baseline.
	pred, actual, err := cm.PredictCluster(byRun[1])
	if err != nil {
		t.Fatal(err)
	}
	var rss float64
	for i := range pred {
		d := pred[i] - actual[i]
		rss += d * d
	}
	return &fixture{
		model:   cm,
		names:   train[0].Names,
		streams: byRun[1],
		rmse:    math.Sqrt(rss / float64(len(pred))),
	}
}

func defaultSpec() models.FeatureSpec {
	return models.FeatureSpec{Name: "cluster", Counters: []string{
		counters.CPUTotal, counters.CPUFreqCore0, counters.MemCacheFaults,
	}}
}

// samplesAt extracts second i of every machine trace as streaming samples.
func samplesAt(ts []*trace.Trace, i int) []Sample {
	out := make([]Sample, 0, len(ts))
	for _, t := range ts {
		out = append(out, Sample{
			MachineID: t.MachineID,
			Platform:  t.Platform,
			Counters:  t.X.Row(i),
		})
	}
	return out
}

func TestPredictorMatchesOfflinePredictions(t *testing.T) {
	fx := buildFixture(t, defaultSpec(), []string{"Prime"})
	p, err := NewPredictor(fx.model, fx.names)
	if err != nil {
		t.Fatal(err)
	}
	// Offline reference.
	offPred, _, err := fx.model.PredictCluster(fx.streams)
	if err != nil {
		t.Fatal(err)
	}
	n := fx.streams[0].Len()
	for i := 0; i < n; i++ {
		est, err := p.Step(samplesAt(fx.streams, i))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.ClusterWatts-offPred[i]) > 1e-9 {
			t.Fatalf("streaming prediction %v != offline %v at t=%d", est.ClusterWatts, offPred[i], i)
		}
		if len(est.PerMachine) != len(fx.streams) {
			t.Fatalf("per-machine estimates = %d", len(est.PerMachine))
		}
	}
}

func TestPredictorLaggedSpecStreaming(t *testing.T) {
	spec := defaultSpec()
	spec.LagWindow = 2
	fx := buildFixture(t, spec, []string{"Prime"})
	p, err := NewPredictor(fx.model, fx.names)
	if err != nil {
		t.Fatal(err)
	}
	offPred, _, err := fx.model.PredictCluster(fx.streams)
	if err != nil {
		t.Fatal(err)
	}
	n := fx.streams[0].Len()
	mismatches := 0
	for i := 0; i < n; i++ {
		est, err := p.Step(samplesAt(fx.streams, i))
		if err != nil {
			t.Fatal(err)
		}
		// Offline clamps lags at the trace start identically, so the
		// streaming path must agree everywhere.
		if math.Abs(est.ClusterWatts-offPred[i]) > 1e-9 {
			mismatches++
		}
	}
	if mismatches > 0 {
		t.Errorf("%d/%d lagged streaming predictions disagree with offline", mismatches, n)
	}
}

// TestPredictorSetModelKeepsLagHistory: the frequency history is the
// stream's, recorded whatever model is bound, so rebinding from a lag-free
// model to a lagged one (watts = freq(t−1)) reads the previous second at
// once instead of cold-starting on the current one.
func TestPredictorSetModelKeepsLagHistory(t *testing.T) {
	names := []string{counters.CPUFreqCore0}
	model := func(spec models.FeatureSpec, coef ...float64) *models.ClusterModel {
		cm, err := models.NewClusterModel(&models.MachineModel{Platform: "p", Spec: spec, Model: &models.Linear{Coef: coef}})
		if err != nil {
			t.Fatal(err)
		}
		return cm
	}
	p, err := NewPredictor(model(models.FeatureSpec{Name: "now", Counters: names}, 1), names)
	if err != nil {
		t.Fatal(err)
	}
	step := func(freq float64) float64 {
		t.Helper()
		est, err := p.Step([]Sample{{MachineID: "m", Platform: "p", Counters: []float64{freq}}})
		if err != nil {
			t.Fatal(err)
		}
		return est.ClusterWatts
	}
	for f := 1.0; f <= 5; f++ {
		if got := step(f); got != f {
			t.Fatalf("lag-free model at freq %g answered %g", f, got)
		}
	}
	if err := p.SetModel(model(models.FeatureSpec{Name: "lag", Counters: names, LagFreq: true}, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := step(6); got != 5 {
		t.Errorf("first lagged answer after SetModel = %g W, want 5 (the previous second's freq)", got)
	}
}

func TestPredictorValidation(t *testing.T) {
	fx := buildFixture(t, defaultSpec(), []string{"Prime"})
	if _, err := NewPredictor(nil, fx.names); err == nil {
		t.Error("expected error for nil model")
	}
	if _, err := NewPredictor(fx.model, []string{"bogus"}); err == nil {
		t.Error("expected error for unresolvable counters")
	}
	p, err := NewPredictor(fx.model, fx.names)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Step(nil); err == nil {
		t.Error("expected error for empty step")
	}
	if _, err := p.Step([]Sample{{MachineID: "x", Platform: "VAX", Counters: make([]float64, len(fx.names))}}); err == nil {
		t.Error("expected error for unknown platform")
	}
	if _, err := p.Step([]Sample{{MachineID: "x", Platform: "Core2", Counters: []float64{1}}}); err == nil {
		t.Error("expected error for short counter row")
	}
	// SetModel applies NewPredictor's checks and keeps the bound model on
	// a refusal.
	if err := p.SetModel(nil); err == nil {
		t.Error("expected error rebinding to a nil model")
	}
	bogus := &models.ClusterModel{ByPlatform: map[string]*models.MachineModel{"Core2": {
		Platform: "Core2",
		Spec:     models.FeatureSpec{Name: "bogus", Counters: []string{"bogus"}},
		Model:    &models.Linear{Coef: []float64{1}},
	}}}
	if err := p.SetModel(bogus); err == nil {
		t.Error("expected error rebinding to a model with unresolvable counters")
	}
	want, _, err := fx.model.PredictCluster(fx.streams)
	if err != nil {
		t.Fatal(err)
	}
	if est, err := p.Step(samplesAt(fx.streams, 0)); err != nil || math.Abs(est.ClusterWatts-want[0]) > 1e-9 {
		t.Errorf("after refused rebinds: estimate %v (err %v), want %v from the original model", est, err, want[0])
	}
}

func TestMonitorQuietOnInRegimeErrors(t *testing.T) {
	m, err := NewMonitor(2.0, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		// Residuals at the baseline scale: no drift.
		if m.Observe(100, 100+2.0*sign(i)) {
			t.Fatalf("false drift alarm at observation %d", i)
		}
	}
	if m.Drifted() {
		t.Error("monitor drifted on in-regime errors")
	}
	if m.Observations() != 1000 {
		t.Errorf("Observations = %d", m.Observations())
	}
}

func sign(i int) float64 {
	if i%2 == 0 {
		return 1
	}
	return -1
}

func TestMonitorCatchesRegimeShift(t *testing.T) {
	m, err := NewMonitor(2.0, 16)
	if err != nil {
		t.Fatal(err)
	}
	// In-regime phase.
	for i := 0; i < 100; i++ {
		m.Observe(100, 101)
	}
	// Errors jump to 5x baseline: the alarm must fire quickly.
	fired := -1
	for i := 0; i < 100; i++ {
		if m.Observe(100, 110) {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("drift never detected")
	}
	if fired > 30 {
		t.Errorf("drift detected only after %d observations", fired)
	}
	if prev := m.ResetDrift(0); prev != 2 {
		t.Errorf("ResetDrift(0) returned %g, want the baseline in force, 2", prev)
	}
	if m.Drifted() || m.EWMA() != 0 || m.Observations() != 0 {
		t.Error("Reset did not clear state")
	}
	// Re-based on 10 W, the 10 W errors that alarmed at a 2 W baseline are
	// in regime.
	if prev := m.ResetDrift(10); prev != 2 {
		t.Errorf("ResetDrift(10) returned %g, want 2", prev)
	}
	for i := 0; i < 100; i++ {
		if m.Observe(100, 110) {
			t.Fatalf("drift at observation %d after re-basing on 10 W", i)
		}
	}
}

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(0, 10); err == nil {
		t.Error("expected error for zero baseline")
	}
	m, err := NewMonitor(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.threshold <= 0 {
		t.Error("default threshold not applied")
	}
}

// TestConcurrentUse exercises the Monitor from several goroutines (run
// with -race to verify the locking). The Predictor has one owner
// goroutine, so the estimates are computed up front.
func TestConcurrentUse(t *testing.T) {
	fx := buildFixture(t, defaultSpec(), []string{"Prime"})
	p, err := NewPredictor(fx.model, fx.names)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(fx.rmse+0.1, 1e9) // effectively never alarms
	if err != nil {
		t.Fatal(err)
	}
	n := min(fx.streams[0].Len(), 120)
	ests := make([]float64, n)
	for i := range ests {
		est, err := p.Step(samplesAt(fx.streams, i))
		if err != nil {
			t.Fatal(err)
		}
		ests[i] = est.ClusterWatts
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				mon.Observe(ests[i], ests[i]+0.5)
				mon.EWMA()
			}
		}()
	}
	wg.Wait()
	if mon.Observations() != 4*n {
		t.Errorf("Observations = %d, want %d", mon.Observations(), 4*n)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestConcurrentPredictorInstrumentation steps the predictor on its one
// owner goroutine while eight goroutines feed its estimates to the
// monitor, and checks the obs registry instruments stay consistent. This is the -race acceptance test for the
// observability layer.
func TestConcurrentPredictorInstrumentation(t *testing.T) {
	fx := buildFixture(t, defaultSpec(), []string{"Prime"})
	p, err := NewPredictor(fx.model, fx.names)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(math.Max(fx.rmse, 0.1), 16)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default().Counter("chaos_estimates_total", nil).Value()

	// The predictor's owner goroutine hands each second's estimate to
	// whichever worker is free.
	type second struct {
		i     int
		watts float64
	}
	n := min(fx.streams[0].Len(), 200)
	secs := make(chan second)
	go func() {
		defer close(secs)
		for i := 0; i < n; i++ {
			est, err := p.Step(samplesAt(fx.streams, i))
			if err != nil {
				t.Error(err)
				return
			}
			secs <- second{i, est.ClusterWatts}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sec := range secs {
				var actual float64
				for _, tr := range fx.streams {
					actual += tr.Power[sec.i]
				}
				mon.Observe(sec.watts, actual)
			}
		}()
	}
	wg.Wait()

	want := before + float64(n)
	if got := obs.Default().Counter("chaos_estimates_total", nil).Value(); got != want {
		t.Errorf("estimates counter = %g, want %g", got, want)
	}
	if mon.Observations() != n {
		t.Errorf("monitor observations = %d, want %d", mon.Observations(), n)
	}
}
