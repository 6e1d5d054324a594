package lifecycle

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/trace"
)

// synthNames is the counter order of synthSecond's samples.
var synthNames = []string{counters.CPUTotal, counters.CPUFreqCore0, "c", "d"}

// synthSecond is machine m's labeled second i: four counters sweeping
// co-prime cycles, and metered watts that depend on them and on the
// previous second's frequency.
func synthSecond(m, i int) (online.Sample, float64) {
	freq := func(i int) float64 { return 1600 + 200*float64((i/7+m)%5) }
	u := float64((i*37 + m*11) % 101)
	c := float64((i * 53) % 89)
	d := float64((i*29 + m) % 61)
	w := 50 + 0.3*u + 0.01*freq(i) + 0.02*freq(i-1) + 0.1*c + 0.001*u*d
	return online.Sample{MachineID: "m" + string(rune('0'+m)), Platform: "p",
		Counters: []float64{u, freq(i), c, d}}, w
}

// ingestSynth feeds both synthetic machines' seconds [from, to) as
// snapshots.
func ingestSynth(o *Orchestrator, from, to int) {
	for i := from; i < to; i++ {
		s0, w0 := synthSecond(0, i)
		s1, w1 := synthSecond(1, i)
		o.Ingest([]online.Sample{s0, s1}, []float64{w0, w1}, 0, "")
	}
}

// synthOrchestrator is an orchestrator over synthNames whose registry
// holds a linear champion, "v1", for platform p.
func synthOrchestrator(t testing.TB, tech models.Technique) *Orchestrator {
	t.Helper()
	spec := models.FeatureSpec{Name: "synth", Counters: synthNames}
	champ, err := models.NewClusterModel(&models.MachineModel{Platform: "p", Spec: spec,
		Model: &models.Linear{Intercept: 50, Coef: []float64{0.3, 0.03, 0.1, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	if err := reg.Add("v1", champ, registry.Meta{}); err != nil {
		t.Fatal(err)
	}
	o, err := New(reg, nopEngine{}, Config{Tech: tech, Spec: spec, Names: synthNames})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// collectedFixture is a simulated Core2 cluster: a quadratic model fitted
// on Prime run 0, and run 1's traces to stream.
type collectedFixture struct {
	names   []string
	spec    models.FeatureSpec
	streams []*trace.Trace
	rmse    float64 // the model's rMSE on the streamed run
}

func buildCollected(t *testing.T) *collectedFixture {
	t.Helper()
	spec := models.FeatureSpec{Name: "cluster", Counters: []string{
		counters.CPUTotal, counters.CPUFreqCore0, counters.MemCacheFaults,
	}}
	ds, err := core.Collect("Core2", 2, []string{"Prime"}, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	byRun := trace.ByRun(ds.ByWorkload["Prime"])
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
	return &collectedFixture{names: train[0].Names, spec: spec, streams: byRun[1],
		rmse: clusterRMSE(t, cm, byRun[1])}
}

// clusterRMSE is a cluster model's rMSE on one run.
func clusterRMSE(t *testing.T, cm *models.ClusterModel, run []*trace.Trace) float64 {
	t.Helper()
	pred, actual, err := cm.PredictCluster(run)
	if err != nil {
		t.Fatal(err)
	}
	var rss float64
	for i := range pred {
		d := pred[i] - actual[i]
		rss += d * d
	}
	return math.Sqrt(rss / float64(len(pred)))
}

// buffered is the number of labeled seconds b holds for one machine.
func buffered(b *buffers, machineID string) int {
	if r := b.rings[machineID]; r != nil {
		return r.Len()
	}
	return 0
}

// samplesAt extracts second i of every machine trace as streaming samples.
func samplesAt(ts []*trace.Trace, i int) []online.Sample {
	out := make([]online.Sample, 0, len(ts))
	for _, t := range ts {
		out = append(out, online.Sample{MachineID: t.MachineID, Platform: t.Platform, Counters: t.X.Row(i)})
	}
	return out
}

// TestRetrainerRoundTrip buffers a streamed run and fits it: the fresh
// model predicts the data it was fitted on about as well as the original
// model predicts it.
func TestRetrainerRoundTrip(t *testing.T) {
	fx := buildCollected(t)
	b := newBuffers(600)
	n := fx.streams[0].Len()
	for i := 0; i < n; i++ {
		for _, tr := range fx.streams {
			b.add(online.Sample{MachineID: tr.MachineID, Platform: tr.Platform, Counters: tr.X.Row(i)}, tr.Power[i])
		}
	}
	if got := buffered(b, fx.streams[0].MachineID); got != min(n, 600) {
		t.Errorf("buffered = %d, want %d", got, min(n, 600))
	}
	cm, err := fit(b.copyRows(), fx.names, models.TechQuadratic, fx.spec)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if rmse := clusterRMSE(t, cm, fx.streams); rmse > fx.rmse*3+1 {
		t.Errorf("retrained model rMSE %v vs original %v", rmse, fx.rmse)
	}
}

// TestRetrainerRingEviction: each machine keeps only its newest seconds.
func TestRetrainerRingEviction(t *testing.T) {
	b := newBuffers(3)
	for i := 0; i < 10; i++ {
		b.add(online.Sample{MachineID: "m", Platform: "Core2", Counters: []float64{float64(i)}}, float64(i))
	}
	if got := buffered(b, "m"); got != 3 {
		t.Errorf("buffered = %d, want ring capacity 3", got)
	}
	if buffered(b, "ghost") != 0 {
		t.Error("unknown machine should buffer zero")
	}
}

// TestRetrainerValidation: a short counter row never reaches the buffers,
// and empty buffers fit nothing.
func TestRetrainerValidation(t *testing.T) {
	o, err := New(registry.New(), nopEngine{}, Config{Names: []string{"a", "b"},
		Spec: models.FeatureSpec{Name: "ab", Counters: []string{"a", "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	o.Ingest([]online.Sample{{MachineID: "m", Counters: []float64{1}}}, []float64{1}, 0, "")
	if n := buffered(o.buf, "m"); n != 0 {
		t.Errorf("a short counter row was buffered (%d rows)", n)
	}
	if _, err := fit(o.buf.copyRows(), o.cfg.Names, models.TechLinear, models.CPUOnlySpec()); err == nil {
		t.Error("expected error with no buffered data")
	}
}

// TestRetrainerAddDuringFit: Ingest runs on the serving path, so it must
// not wait for a fit. Snapshots ingested while Step fits a quadratic
// challenger must each return long before the fit does.
func TestRetrainerAddDuringFit(t *testing.T) {
	o := synthOrchestrator(t, models.TechQuadratic)
	ingestSynth(o, 0, 1024)
	if err := o.TriggerRetrain("test"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	start := time.Now()
	go func() {
		o.Step(time.Unix(0, 0))
		close(done)
	}()
	var worst time.Duration
	for i := 1024; ; i++ {
		select {
		case <-done:
			fit := time.Since(start)
			if s := o.Status(); s.State != "shadowing" {
				t.Fatalf("status %+v after the fit, want shadowing", s)
			}
			if worst > fit/4 {
				t.Fatalf("an Ingest waited %v during a %v fit", worst, fit)
			}
			t.Logf("worst Ingest wait %v during a %v fit", worst, fit)
			return
		default:
		}
		t0 := time.Now()
		ingestSynth(o, i, i+1)
		if d := time.Since(t0); d > worst {
			worst = d
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestRetrainerMinRowsGuard locks the fail-fast path the orchestrator
// depends on: a machine with fewer buffered samples than the design width
// (features + intercept) must produce a clear error naming the machine,
// not a rank-deficient fit.
func TestRetrainerMinRowsGuard(t *testing.T) {
	names := []string{"a", "b"}
	spec := models.FeatureSpec{Name: "ab", Counters: names}
	b := newBuffers(16)
	// y = 1 + 2a + 3b, noise-free; the floor is features + intercept + 1
	// (regress.OLS wants strictly more rows than parameters), here 4.
	rows := [][]float64{{1, 0}, {0, 1}, {1, 1}, {2, 1}}
	power := []float64{3, 4, 6, 8}
	// Three samples < floor of four: must refuse.
	for i := 0; i < 3; i++ {
		b.add(online.Sample{MachineID: "m0", Platform: "Core2", Counters: rows[i]}, power[i])
	}
	_, err := fit(b.copyRows(), names, models.TechLinear, spec)
	if err == nil {
		t.Fatal("fit succeeded with 3 samples for a 3-unknown design")
	}
	for _, want := range []string{"m0", "3", "4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q (machine, have, need)", err, want)
		}
	}
	// One more row meets the floor and the fit goes through.
	b.add(online.Sample{MachineID: "m0", Platform: "Core2", Counters: rows[3]}, power[3])
	if _, err := fit(b.copyRows(), names, models.TechLinear, spec); err != nil {
		t.Fatalf("fit at exactly the minimum-rows floor: %v", err)
	}
	// The guard is per machine: a healthy machine cannot mask a starved one.
	b.add(online.Sample{MachineID: "m1", Platform: "Core2", Counters: rows[0]}, power[0])
	if _, err := fit(b.copyRows(), names, models.TechLinear, spec); err == nil {
		t.Error("fit succeeded with one starved machine in the buffers")
	} else if !strings.Contains(err.Error(), "m1") {
		t.Errorf("error %q should name the starved machine m1", err)
	}
}

// TestRecoveryRetrainAcrossRestore fits wrapped rings before and after a
// checkpoint round trip of the buffers. Both fits must read every
// machine's seconds oldest-first, so the two models serialize
// identically — for a lag-free spec and for a lagged-frequency spec,
// whose lag column reads the previous row.
func TestRecoveryRetrainAcrossRestore(t *testing.T) {
	for _, spec := range []models.FeatureSpec{
		{Name: "lag-free", Counters: synthNames},
		{Name: "lagged", Counters: synthNames, LagFreq: true},
	} {
		t.Run(spec.Name, func(t *testing.T) {
			b := newBuffers(300)
			// 450 seconds into 300 slots: both rings wrap.
			for i := 0; i < 450; i++ {
				for m := 0; m < 2; m++ {
					b.add(synthSecond(m, i))
				}
			}
			data, err := json.Marshal(b.doc(synthNames))
			if err != nil {
				t.Fatal(err)
			}
			var d buffersDoc
			if err := json.Unmarshal(data, &d); err != nil {
				t.Fatal(err)
			}
			b2, err := restoreBuffers(d, synthNames, 300)
			if err != nil {
				t.Fatal(err)
			}
			var docs [2][]byte
			for k, buf := range []*buffers{b, b2} {
				cm, err := fit(buf.copyRows(), synthNames, models.TechLinear, spec)
				if err != nil {
					t.Fatal(err)
				}
				if docs[k], err = json.Marshal(cm); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(docs[0], docs[1]) {
				t.Errorf("fit differs across the restore:\nbefore %s\nafter  %s", docs[0], docs[1])
			}
		})
	}
}

// TestRecoveryRetrainerState round-trips the retrain buffers through the
// serialized checkpoint form, including a wrapped ring whose chronological
// order must be preserved, and locks the mismatch guards.
func TestRecoveryRetrainerState(t *testing.T) {
	names := []string{"a", "b"}
	b := newBuffers(4)
	// 6 adds into a capacity-4 ring: the ring wraps, keeping seconds 2..5.
	for i := 0; i < 6; i++ {
		b.add(online.Sample{MachineID: "m0", Platform: "p", Counters: []float64{float64(i), float64(i * 2)}}, float64(100+i))
	}
	b.add(online.Sample{MachineID: "m1", Platform: "q", Counters: []float64{7, 8}}, 50)

	data, err := json.Marshal(b.doc(names))
	if err != nil {
		t.Fatal(err)
	}
	var decoded buffersDoc
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}

	m0 := decoded.Machines["m0"]
	wantRows := [][]float64{{2, 4}, {3, 6}, {4, 8}, {5, 10}}
	wantPower := []float64{102, 103, 104, 105}
	if !reflect.DeepEqual(m0.Rows, wantRows) || !reflect.DeepEqual(m0.Power, wantPower) {
		t.Fatalf("wrapped ring state = %+v / %+v, want %+v / %+v (oldest first)",
			m0.Rows, m0.Power, wantRows, wantPower)
	}
	if decoded.Machines["m1"].Platform != "q" {
		t.Fatalf("platform lost: %+v", decoded.Machines["m1"])
	}

	b2, err := restoreBuffers(decoded, names, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := buffered(b2, "m0"); got != 4 {
		t.Fatalf("restored m0 buffered = %d, want 4", got)
	}
	if got := buffered(b2, "m1"); got != 1 {
		t.Fatalf("restored m1 buffered = %d, want 1", got)
	}
	// The restored ring continues in order: one more add evicts the oldest.
	b2.add(online.Sample{MachineID: "m0", Platform: "p", Counters: []float64{9, 9}}, 200)
	if got := b2.doc(names).Machines["m0"]; got.Power[0] != 103 || got.Power[3] != 200 {
		t.Fatalf("post-restore add broke ring order: %+v", got)
	}

	// Mismatched counter order must be refused.
	if _, err := restoreBuffers(decoded, []string{"b", "a"}, 4); err == nil {
		t.Fatal("counter-order mismatch accepted")
	}
	// Row/label length mismatch must be refused.
	broken := decoded
	md := broken.Machines["m0"]
	md.Power = md.Power[:2]
	broken.Machines = map[string]machineDoc{"m0": md}
	if _, err := restoreBuffers(broken, names, 4); err == nil {
		t.Fatal("row/label mismatch accepted")
	}
}

// TestFaultRetrainerRejectsNonFinite: corrupt rows and meter readings are
// silently skipped so they can never poison a retraining fit.
func TestFaultRetrainerRejectsNonFinite(t *testing.T) {
	b := newBuffers(100)
	s, w := synthSecond(0, 0)
	b.add(s, w)
	bad := s
	bad.Counters = append([]float64(nil), s.Counters...)
	bad.Counters[3] = math.Inf(1)
	b.add(bad, w)
	b.add(s, math.NaN())
	if got := buffered(b, s.MachineID); got != 1 {
		t.Fatalf("buffered %d labeled seconds, want 1 (corrupt ones skipped)", got)
	}
}

// TestDriftLoopEndToEnd: a model trained on Prime drifts when the cluster
// switches to the I/O-heavy Sort workload; the lifecycle's challenger,
// fitted on the buffered Sort seconds, restores accuracy. This is the
// paper's adaptation story in miniature.
func TestDriftLoopEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end drift loop in -short mode")
	}
	ds, err := core.Collect("Core2", 2, []string{"Prime", "Sort"}, 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	spec := models.FeatureSpec{Name: "cluster", Counters: []string{
		counters.CPUTotal, counters.CPUFreqCore0, counters.MemCacheFaults,
	}}
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
	names := train[0].Names

	p, err := online.NewPredictor(cm, names)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline RMSE on held-out Prime.
	mon, err := online.NewMonitor(clusterRMSE(t, cm, byRunPrime[1]), 16)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	if err := reg.Add("prime", cm, registry.Meta{}); err != nil {
		t.Fatal(err)
	}
	o, err := New(reg, mon, Config{Tech: models.TechQuadratic, Spec: spec, Names: names})
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
		metered := make([]float64, len(sortRun))
		for k, tr := range sortRun {
			clusterActual += tr.Power[i]
			metered[k] = tr.Power[i]
		}
		o.Ingest(ss, metered, est.ClusterWatts, "prime")
		if mon.Observe(est.ClusterWatts, clusterActual) && driftAt < 0 {
			driftAt = i
		}
	}
	if driftAt < 0 {
		t.Fatal("workload change never triggered drift")
	}

	// Retrain on the buffered Sort seconds; accuracy on the second Sort
	// run must improve over the stale Prime model.
	if err := o.TriggerRetrain("test"); err != nil {
		t.Fatal(err)
	}
	o.Step(time.Unix(0, 0))
	e, ok := reg.Get("auto-1")
	if !ok {
		t.Fatalf("no challenger trained; status %+v", o.Status())
	}
	sortRun2 := trace.ByRun(ds.ByWorkload["Sort"])[1]
	if fresh, stale := clusterRMSE(t, e.Model, sortRun2), clusterRMSE(t, cm, sortRun2); fresh >= stale {
		t.Errorf("retrained rMSE %v should beat stale %v", fresh, stale)
	}
}

// TestConcurrentUse ingests from four goroutines while a fifth reads the
// status and writes checkpoints (run with -race to verify the locking);
// the buffers then hold every snapshot and fit a challenger.
func TestConcurrentUse(t *testing.T) {
	o := synthOrchestrator(t, models.TechLinear)
	const n = 120
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ingestSynth(o, g*n, (g+1)*n)
		}(g)
	}
	stop := make(chan struct{})
	read := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				read <- nil
				return
			default:
			}
			o.Status()
			if _, err := o.MarshalCheckpoint(); err != nil {
				read <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if got := buffered(o.buf, "m0"); got != 4*n {
		t.Errorf("buffered = %d, want %d", got, 4*n)
	}
	if err := o.TriggerRetrain("test"); err != nil {
		t.Fatal(err)
	}
	o.Step(time.Unix(0, 0))
	if s := o.Status(); s.State != "shadowing" {
		t.Fatalf("status %+v after concurrent ingests, want a challenger shadowing", s)
	}
}

// TestConcurrentPredictorInstrumentation ingests from eight goroutines
// while the owner goroutine steps the orchestrator, then fits a quadratic
// challenger: chaos_retrains_total counts the one fit, and neither the
// ingests nor the fit count as cluster estimates.
func TestConcurrentPredictorInstrumentation(t *testing.T) {
	o := synthOrchestrator(t, models.TechQuadratic)
	retrains := obs.Default().Counter("chaos_retrains_total", nil)
	estimates := obs.Default().Counter("chaos_estimates_total", nil)
	retrainsBefore, estimatesBefore := retrains.Value(), estimates.Value()

	secs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range secs {
				ingestSynth(o, i, i+1)
			}
		}()
	}
	clock := time.Unix(0, 0)
	for i := 0; i < 200; i++ {
		secs <- i
		clock = clock.Add(time.Second)
		o.Step(clock)
	}
	close(secs)
	wg.Wait()

	if err := o.TriggerRetrain("test"); err != nil {
		t.Fatal(err)
	}
	o.Step(clock.Add(time.Second))
	if s := o.Status(); s.State != "shadowing" || s.Retrains != 1 {
		t.Fatalf("status %+v, want one challenger shadowing", s)
	}
	if got := retrains.Value() - retrainsBefore; got != 1 {
		t.Errorf("chaos_retrains_total moved by %g, want 1", got)
	}
	if got := estimates.Value() - estimatesBefore; got != 0 {
		t.Errorf("chaos_estimates_total moved by %g over ingests and a fit, want 0", got)
	}
}

// BenchmarkRetrain measures one challenger fit: pooling the buffered
// labeled samples of a 4-machine cluster (512 snapshots each) into
// platform traces and fitting a fresh linear cluster model — the
// off-hot-path cost of producing a challenger.
func BenchmarkRetrain(b *testing.B) {
	names := []string{"a", "b", "c"}
	spec := models.FeatureSpec{Name: "bench", Counters: names}
	buf := newBuffers(1024)
	for i := 0; i < 512; i++ {
		a := float64(i % 37)
		c := float64((i * 5) % 23)
		d := float64((i * 11) % 17)
		for m := 0; m < 4; m++ {
			buf.add(online.Sample{
				MachineID: "m" + string(rune('0'+m)),
				Platform:  "Core2",
				Counters:  []float64{a + float64(m), c, d},
			}, 20+2*a+0.5*c+d)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit(buf.copyRows(), names, models.TechLinear, spec); err != nil {
			b.Fatal(err)
		}
	}
}
