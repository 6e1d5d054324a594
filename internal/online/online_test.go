package online

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

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
	spec    models.FeatureSpec
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
		spec:    spec,
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
	m.ResetDrift()
	if m.Drifted() || m.EWMA() != 0 || m.Observations() != 0 {
		t.Error("Reset did not clear state")
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

func TestRetrainerRoundTrip(t *testing.T) {
	fx := buildFixture(t, defaultSpec(), []string{"Prime"})
	rt, err := NewRetrainer(fx.names, 600)
	if err != nil {
		t.Fatal(err)
	}
	n := fx.streams[0].Len()
	for i := 0; i < n; i++ {
		for _, tr := range fx.streams {
			s := Sample{MachineID: tr.MachineID, Platform: tr.Platform, Counters: tr.X.Row(i)}
			if err := rt.Add(s, tr.Power[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := rt.Buffered(fx.streams[0].MachineID); got != min(n, 600) {
		t.Errorf("Buffered = %d, want %d", got, min(n, 600))
	}
	cm, err := rt.Retrain(models.TechQuadratic, fx.spec)
	if err != nil {
		t.Fatalf("Retrain: %v", err)
	}
	// The retrained model should predict the very data it was fed with
	// reasonable accuracy.
	pred, actual, err := cm.PredictCluster(fx.streams)
	if err != nil {
		t.Fatal(err)
	}
	var rss float64
	for i := range pred {
		d := pred[i] - actual[i]
		rss += d * d
	}
	rmse := math.Sqrt(rss / float64(len(pred)))
	if rmse > fx.rmse*3+1 {
		t.Errorf("retrained model rMSE %v vs original %v", rmse, fx.rmse)
	}
}

func TestRetrainerRingEviction(t *testing.T) {
	rt, err := NewRetrainer([]string{"a"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := rt.Add(Sample{MachineID: "m", Platform: "Core2", Counters: []float64{float64(i)}}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.Buffered("m"); got != 3 {
		t.Errorf("Buffered = %d, want ring capacity 3", got)
	}
	if rt.Buffered("ghost") != 0 {
		t.Error("unknown machine should buffer zero")
	}
}

func TestRetrainerValidation(t *testing.T) {
	if _, err := NewRetrainer([]string{"a"}, 0); err == nil {
		t.Error("expected error for zero capacity")
	}
	rt, _ := NewRetrainer([]string{"a", "b"}, 5)
	if err := rt.Add(Sample{MachineID: "m", Counters: []float64{1}}, 1); err == nil {
		t.Error("expected error for short counter row")
	}
	if _, err := rt.Retrain(models.TechLinear, models.CPUOnlySpec()); err == nil {
		t.Error("expected error with no buffered data")
	}
}

// TestRetrainerAddDuringFit: Add runs on the serving path, so it must not
// wait for a fit. Adds sent while a quadratic Retrain runs must each
// return long before the fit does.
func TestRetrainerAddDuringFit(t *testing.T) {
	rt, err := NewRetrainer(synthNames, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		for m := 0; m < 2; m++ {
			if err := rt.Add(synthSecond(m, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := rt.Retrain(models.TechQuadratic, models.FeatureSpec{Name: "quad", Counters: synthNames})
		done <- err
	}()
	var worst time.Duration
	for i := 1024; ; i++ {
		select {
		case err := <-done:
			fit := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if worst > fit/4 {
				t.Fatalf("an Add waited %v during a %v fit", worst, fit)
			}
			t.Logf("worst Add wait %v during a %v fit", worst, fit)
			return
		default:
		}
		s, w := synthSecond(i%2, i)
		t0 := time.Now()
		if err := rt.Add(s, w); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d > worst {
			worst = d
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestRetrainerMinRowsGuard locks the fail-fast path the lifecycle
// orchestrator depends on: a machine with fewer buffered samples than the
// design width (features + intercept) must produce a clear error naming
// the machine, not a rank-deficient fit.
func TestRetrainerMinRowsGuard(t *testing.T) {
	names := []string{"a", "b"}
	spec := models.FeatureSpec{Name: "ab", Counters: names}
	rt, err := NewRetrainer(names, 16)
	if err != nil {
		t.Fatal(err)
	}
	// y = 1 + 2a + 3b, noise-free; the floor is features + intercept + 1
	// (regress.OLS wants strictly more rows than parameters), here 4.
	rows := [][]float64{{1, 0}, {0, 1}, {1, 1}, {2, 1}}
	power := []float64{3, 4, 6, 8}
	// Three samples < floor of four: must refuse.
	for i := 0; i < 3; i++ {
		if err := rt.Add(Sample{MachineID: "m0", Platform: "Core2", Counters: rows[i]}, power[i]); err != nil {
			t.Fatal(err)
		}
	}
	_, err = rt.Retrain(models.TechLinear, spec)
	if err == nil {
		t.Fatal("Retrain succeeded with 3 samples for a 3-unknown design")
	}
	for _, want := range []string{"m0", "3", "4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q (machine, have, need)", err, want)
		}
	}
	// One more row meets the floor and the fit goes through.
	if err := rt.Add(Sample{MachineID: "m0", Platform: "Core2", Counters: rows[3]}, power[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Retrain(models.TechLinear, spec); err != nil {
		t.Fatalf("Retrain at exactly the minimum-rows floor: %v", err)
	}
	// The guard is per machine: a healthy machine cannot mask a starved one.
	if err := rt.Add(Sample{MachineID: "m1", Platform: "Core2", Counters: rows[0]}, power[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Retrain(models.TechLinear, spec); err == nil {
		t.Error("Retrain succeeded with one starved machine in the buffers")
	} else if !strings.Contains(err.Error(), "m1") {
		t.Errorf("error %q should name the starved machine m1", err)
	}
}

// TestDriftLoopEndToEnd: a model trained on Prime drifts when the cluster
// switches to the I/O-heavy Sort workload; retraining on the new samples
// restores accuracy. This is the paper's adaptation story in miniature.
func TestDriftLoopEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end drift loop in -short mode")
	}
	ds, err := core.Collect("Core2", 2, []string{"Prime", "Sort"}, 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	spec := defaultSpec()
	byRunPrime := trace.ByRun(ds.ByWorkload["Prime"])
	var train []*trace.Trace
	for _, tr := range byRunPrime[0] {
		train = append(train, trace.Subsample(tr, 2))
	}
	mm, err := models.FitMachineModel(models.TechQuadratic, train, spec,
		models.FitOptions{MaxKnots: 8})
	if err != nil {
		t.Fatal(err)
	}
	cm, _ := models.NewClusterModel(mm)

	// Baseline RMSE on held-out Prime.
	pred, actual, err := cm.PredictCluster(byRunPrime[1])
	if err != nil {
		t.Fatal(err)
	}
	var rss float64
	for i := range pred {
		d := pred[i] - actual[i]
		rss += d * d
	}
	baseline := math.Sqrt(rss / float64(len(pred)))

	p, err := NewPredictor(cm, train[0].Names)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(baseline, 16)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRetrainer(train[0].Names, 2000)
	if err != nil {
		t.Fatal(err)
	}

	// Stream the Sort workload (unmodeled regime).
	sortRun := trace.ByRun(ds.ByWorkload["Sort"])[0]
	n := sortRun[0].Len()
	driftAt := -1
	for i := 0; i < n; i++ {
		ss := samplesAt(sortRun, i)
		est, err := p.Step(ss)
		if err != nil {
			t.Fatal(err)
		}
		var clusterActual float64
		for _, tr := range sortRun {
			clusterActual += tr.Power[i]
		}
		for k, tr := range sortRun {
			if err := rt.Add(ss[k], tr.Power[i]); err != nil {
				t.Fatal(err)
			}
		}
		if mon.Observe(est.ClusterWatts, clusterActual) && driftAt < 0 {
			driftAt = i
		}
	}
	if driftAt < 0 {
		t.Fatal("workload change never triggered drift")
	}

	// Retrain on the buffered Sort seconds; accuracy on the second Sort
	// run must improve over the stale Prime model.
	cm2, err := rt.Retrain(models.TechQuadratic, spec)
	if err != nil {
		t.Fatal(err)
	}
	sortRun2 := trace.ByRun(ds.ByWorkload["Sort"])[1]
	stale, actual2, err := cm.PredictCluster(sortRun2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := cm2.PredictCluster(sortRun2)
	if err != nil {
		t.Fatal(err)
	}
	rmse := func(p []float64) float64 {
		var s float64
		for i := range p {
			d := p[i] - actual2[i]
			s += d * d
		}
		return math.Sqrt(s / float64(len(p)))
	}
	if rmse(fresh) >= rmse(stale) {
		t.Errorf("retrained rMSE %v should beat stale %v", rmse(fresh), rmse(stale))
	}
}

// TestConcurrentUse exercises Monitor and Retrainer from several
// goroutines (run with -race to verify the locking). The Predictor has one
// owner goroutine, so the estimates are computed up front.
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
	rt, err := NewRetrainer(fx.names, 500)
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
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < n; i++ {
				ss := samplesAt(fx.streams, i)
				mon.Observe(ests[i], ests[i]+0.5)
				for k, tr := range fx.streams {
					if err := rt.Add(ss[k], tr.Power[i]); err != nil {
						done <- err
						return
					}
				}
				mon.EWMA()
				rt.Buffered(fx.streams[0].MachineID)
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if mon.Observations() != 4*n {
		t.Errorf("Observations = %d, want %d", mon.Observations(), 4*n)
	}
	if _, err := rt.Retrain(models.TechLinear, fx.spec); err != nil {
		t.Fatalf("Retrain after concurrent adds: %v", err)
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
// monitor and the retrainer, and checks the obs registry instruments stay
// consistent. This is the -race acceptance test for the
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
	rt, err := NewRetrainer(fx.names, 512)
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
				samples := samplesAt(fx.streams, sec.i)
				var actual float64
				for k, tr := range fx.streams {
					actual += tr.Power[sec.i]
					if err := rt.Add(samples[k], tr.Power[sec.i]); err != nil {
						t.Error(err)
					}
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
	// A concurrent retrain must also be safe.
	if _, err := rt.Retrain(models.TechQuadratic, fx.spec); err != nil {
		t.Fatalf("retrain after concurrent adds: %v", err)
	}
}
