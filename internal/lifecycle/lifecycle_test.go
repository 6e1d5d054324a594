package lifecycle

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/serve"
)

// testNames is the counter-stream order every fixture uses.
var testNames = []string{"a", "b"}

// mkModel builds a one-platform cluster model:
// watts = intercept + c1*a + c2*b.
func mkModel(t *testing.T, intercept, c1, c2 float64) *models.ClusterModel {
	t.Helper()
	mm := &models.MachineModel{
		Platform: "p",
		Spec:     models.FeatureSpec{Name: "test", Counters: testNames},
		Model:    &models.Linear{Intercept: intercept, Coef: []float64{c1, c2}},
	}
	cm, err := models.NewClusterModel(mm)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// stack is a full closed-loop fixture: registry with champion v1
// (10 + a + 2b), and a serving engine that hands its labeled snapshots to
// the attached orchestrator, which the test steps on a fake clock.
type stack struct {
	reg  *registry.Registry
	srv  *serve.Server
	orch *Orchestrator
	now  time.Time
}

func newStack(t *testing.T, lcfg Config, scfg serve.Config) *stack {
	t.Helper()
	reg := registry.New()
	if err := reg.Add("v1", mkModel(t, 10, 1, 2), registry.Meta{Description: "champion"}); err != nil {
		t.Fatal(err)
	}
	return startStack(t, reg, lcfg, scfg, nil)
}

// startStack wires a serving engine and an orchestrator over reg, first
// restoring the orchestrator from ckpt when it is non-nil.
func startStack(t *testing.T, reg *registry.Registry, lcfg Config, scfg serve.Config, ckpt []byte) *stack {
	t.Helper()
	if lcfg.Names == nil {
		lcfg.Names = testNames
	}
	if len(lcfg.Spec.Counters) == 0 {
		lcfg.Spec = models.FeatureSpec{Name: "test", Counters: testNames}
	}
	scfg.Names = testNames
	if scfg.BatchWindow == 0 {
		scfg.BatchWindow = 200 * time.Microsecond
	}
	srv, err := serve.New(reg, scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	orch, err := New(reg, srv, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(orch.Close)
	if ckpt != nil {
		if err := orch.RestoreCheckpoint(ckpt); err != nil {
			t.Fatal(err)
		}
	}
	srv.AttachLifecycle(orch)
	return &stack{reg: reg, srv: srv, orch: orch, now: time.Unix(0, 0)}
}

// step advances the fake clock one second and steps the orchestrator.
func (st *stack) step() {
	st.now = st.now.Add(time.Second)
	st.orch.Step(st.now)
}

// snapshotSamples is the feeder's workload: two machines whose counters
// sweep a 2-D grid so every retrain window has full column rank and real
// dynamic range.
func snapshotSamples(i int) []online.Sample {
	mk := func(id string, off float64) online.Sample {
		a := float64(i%17) + off
		b := float64((i*3)%13) + off/2
		return online.Sample{MachineID: id, Platform: "p", Counters: []float64{a, b}}
	}
	return []online.Sample{mk("f0", 0), mk("f1", 6)}
}

// feedOne sends one labeled snapshot through the engine, then steps; label
// maps one machine's counters to its metered watts.
func feedOne(t *testing.T, st *stack, i int, label func(a, b float64) float64) {
	t.Helper()
	samples := snapshotSamples(i)
	metered := make([]float64, len(samples))
	for j, s := range samples {
		metered[j] = label(s.Counters[0], s.Counters[1])
	}
	if _, err := st.srv.Estimate(samples, 5*time.Second, metered); err != nil {
		t.Fatalf("feeder estimate %d: %v", i, err)
	}
	st.step()
}

// driveUntil feeds labeled snapshots until the orchestrator status
// satisfies cond, failing the test after limit snapshots.
func driveUntil(t *testing.T, st *stack, i *int, label func(a, b float64) float64,
	limit int, what string, cond func(Status) bool) Status {
	t.Helper()
	for n := 0; ; n++ {
		s := st.orch.Status()
		if cond(s) {
			return s
		}
		if n == limit {
			t.Fatalf("no %s after %d snapshots; status %+v", what, limit, s)
		}
		feedOne(t, st, *i, label)
		*i++
	}
}

// trainChallenger feeds n labeled snapshots and triggers a manual retrain,
// which the next step serves: the challenger is then shadowing.
func trainChallenger(t *testing.T, st *stack, i *int, n int, label func(a, b float64) float64) {
	t.Helper()
	for end := *i + n; *i < end; *i++ {
		feedOne(t, st, *i, label)
	}
	if err := st.orch.TriggerRetrain("test"); err != nil {
		t.Fatal(err)
	}
	st.step()
	if s := st.orch.Status(); s.State != "shadowing" {
		t.Fatalf("challenger not shadowing; status %+v", s)
	}
}

// TestLifecycleDriftRetrainPromote is the happy path end to end: a
// workload shift makes the champion's residuals alarm the drift monitor,
// the orchestrator retrains a challenger off the hot path, the challenger
// wins shadow evaluation on live traffic, is promoted through
// the registry hot-swap with zero dropped or torn requests in flight, and
// survives probation.
func TestLifecycleDriftRetrainPromote(t *testing.T) {
	st := newStack(t, Config{
		MinTrainSnapshots:  40,
		ShadowSnapshots:    20,
		ProbationSnapshots: 30,
		HeldOut:            128,
	}, serve.Config{
		Shards:       2,
		BaselineRMSE: 1, // the shifted truth is tens of watts off: drift alarms fast
	})

	// Hammer the API from three clients for the whole run: every answer
	// must be a complete, untorn snapshot — the per-machine watts must be
	// exactly what the reported model version predicts.
	var failures, torn, served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for h := 0; h < 3; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			id := "h" + string(rune('0'+h))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctrs := []float64{float64(i % 9), float64((i * 7) % 5)}
				res, err := st.srv.Estimate([]online.Sample{
					{MachineID: id, Platform: "p", Counters: ctrs},
				}, 5*time.Second, nil)
				if err != nil {
					failures.Add(1)
					return
				}
				e, ok := st.reg.Get(res.Versions[0])
				if !ok {
					torn.Add(1)
					return
				}
				want := e.Model.ByPlatform["p"].Model.Predict(ctrs)
				if res.PerMachine[id] != want {
					torn.Add(1)
					return
				}
				served.Add(1)
			}
		}(h)
	}

	// The workload shift: metered power follows a different law than the
	// champion (10 + a + 2b) was fitted for.
	shifted := func(a, b float64) float64 { return 40 + 3*a + 0.5*b }
	i := 0
	driveUntil(t, st, &i, shifted, 500, "promotion",
		func(s Status) bool { return s.Promotions >= 1 })
	final := driveUntil(t, st, &i, shifted, 500, "probation pass",
		func(s Status) bool { return s.Promotions >= 1 && s.State == "idle" })

	close(stop)
	wg.Wait()

	if final.Rollbacks != 0 {
		t.Errorf("rollbacks = %d, want 0 (challenger fits the shifted truth)", final.Rollbacks)
	}
	if final.Retrains < 1 || final.LastTrigger != "drift" {
		t.Errorf("retrains = %d trigger %q, want >= 1 via drift", final.Retrains, final.LastTrigger)
	}
	if final.LastVerdict != "promoted" {
		t.Errorf("last verdict = %q, want promoted", final.LastVerdict)
	}
	if active := st.reg.ActiveVersion(); active == "v1" {
		t.Error("champion v1 still active after promotion")
	}
	if n := failures.Load(); n != 0 {
		t.Errorf("%d hammer requests failed during the lifecycle", n)
	}
	if n := torn.Load(); n != 0 {
		t.Errorf("%d torn responses (watts not matching the reported version)", n)
	}
	if served.Load() == 0 {
		t.Error("hammers never served a request")
	}
	// The promoted challenger must actually track the shifted truth.
	e := st.reg.Active()
	got := e.Model.ByPlatform["p"].Model.Predict([]float64{8, 4})
	if want := shifted(8, 4); math.Abs(got-want) > 1 {
		t.Errorf("promoted model predicts %g at (8,4), want ~%g", got, want)
	}
}

// TestLifecycleCorruptRetrainWindowRejected feeds the retrain window
// deliberately poisoned labels (the fault-injection story: a corrupted
// meter lies to the buffers), triggers a retrain, and then serves clean
// traffic during the shadow phase. The challenger — a perfect fit of the
// garbage — must lose the live gate and never promote.
func TestLifecycleCorruptRetrainWindowRejected(t *testing.T) {
	st := newStack(t, Config{
		ShadowSnapshots: 20,
	}, serve.Config{Shards: 2})

	truth := func(a, b float64) float64 { return 10 + a + 2*b } // == champion
	poison := func(a, b float64) float64 { return 200 - 2*a + 5*b }

	// Phase 1: the retrain window fills with poisoned labels.
	i := 0
	trainChallenger(t, st, &i, 60, poison)
	// Phase 2: clean traffic while shadowing. The champion nails it, the
	// poisoned challenger is wildly off.
	verdict := driveUntil(t, st, &i, truth, 100, "verdict",
		func(s Status) bool { return s.State == "idle" })

	if verdict.Promotions != 0 {
		t.Errorf("promotions = %d, want 0 for a poisoned challenger", verdict.Promotions)
	}
	if verdict.LastVerdict != "rejected" {
		t.Errorf("last verdict = %q, want rejected", verdict.LastVerdict)
	}
	if active := st.reg.ActiveVersion(); active != "v1" {
		t.Errorf("active = %q, want champion v1 to keep serving", active)
	}
	if verdict.ShadowErrorRatio <= 1 {
		t.Errorf("shadow error ratio = %g, want > 1 (challenger worse)", verdict.ShadowErrorRatio)
	}
}

// TestLifecycleLiveEvidence pins what the verdict scores as live traffic:
// exactly the labeled snapshots ingested after the challenger was
// trained. One goroutine feeds a fixed sequence through a lag-free stack —
// law B before the retrain, B plus a per-snapshot offset after it — and
// the verdict's live count, live error ratio, combined DREs and the
// promoted shadow RMSE must equal the figures computed here from the two
// models' predictions, with the pre-training snapshots in the held-out
// figures only.
func TestLifecycleLiveEvidence(t *testing.T) {
	const pre, live = 60, 20
	var events bytes.Buffer
	st := newStack(t, Config{
		ShadowSnapshots: live,
		Events:          obs.NewEventSink(&events),
	}, serve.Config{Shards: 2})

	lawB := func(a, b float64) float64 { return 40 + 3*a + 0.5*b }
	// label is snapshot j's metering law.
	label := func(j int) func(a, b float64) float64 {
		if j < pre {
			return lawB
		}
		return func(a, b float64) float64 { return lawB(a, b) + float64(j%3) }
	}
	i := 0
	trainChallenger(t, st, &i, pre, lawB)
	for ; i < pre+live; i++ {
		feedOne(t, st, i, label(i))
	}
	if s := st.orch.Status(); s.LiveShadowSnapshots != live || s.LastVerdict != "promoted" {
		t.Fatalf("status %+v, want %d live snapshots and a promotion", s, live)
	}

	// Replay the fed sequence: the held-out window is the pre-training
	// snapshots, the live window everything after.
	var win []Snapshot
	for j := 0; j < pre+live; j++ {
		snap := Snapshot{Samples: snapshotSamples(j)}
		for _, s := range snap.Samples {
			snap.Actual += label(j)(s.Counters[0], s.Counters[1])
		}
		win = append(win, snap)
	}
	champ, ok := st.reg.Get("v1")
	chall, ok2 := st.reg.Get("auto-1")
	if !ok || !ok2 {
		t.Fatal("champion v1 or challenger auto-1 missing from the registry")
	}
	// sse sums a model's squared cluster error in ScoreWindow's order.
	sse := func(cm *models.ClusterModel, snaps []Snapshot) float64 {
		total := 0.0
		for _, snap := range snaps {
			sum := 0.0
			for _, s := range snap.Samples {
				sum += cm.ByPlatform[s.Platform].Model.Predict(s.Counters)
			}
			d := sum - snap.Actual
			total += d * d
		}
		return total
	}
	hc, lc := sse(champ.Model, win[:pre]), sse(champ.Model, win[pre:])
	hl, ll := sse(chall.Model, win[:pre]), sse(chall.Model, win[pre:])
	minA, maxA := math.Inf(1), math.Inf(-1)
	for _, snap := range win {
		minA, maxA = math.Min(minA, snap.Actual), math.Max(maxA, snap.Actual)
	}
	n := float64(pre + live)
	want := map[string]map[string]float64{
		"shadow_verdict": {
			"heldout":   pre,
			"live":      live,
			"ratio":     math.Sqrt(ll/live) / math.Sqrt(lc/live),
			"champ_dre": math.Sqrt((hc+lc)/n) / (maxA - minA),
			"chall_dre": math.Sqrt((hl+ll)/n) / (maxA - minA),
		},
		"promoted": {"shadow_rmse_w": math.Sqrt((hl + ll) / n)},
	}
	for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		name, _ := ev["event"].(string)
		for k, w := range want[name] {
			if got := ev[k]; got != w {
				t.Errorf("%s %s = %v, want %v", name, k, got, w)
			}
		}
		delete(want, name)
	}
	if len(want) != 0 {
		t.Errorf("events never emitted: %v", want)
	}
}

// TestLifecycleLiveGateSameSnapshots: a machine of a new platform joins
// while the challenger shadows. The champion serves it, but the
// challenger, fitted before it appeared, cannot predict it, so the
// challenger scores none of the live snapshots the champion scores. Its
// near-perfect held-out fit must not win on that smaller set: the live
// gate rejects it and the champion keeps serving.
func TestLifecycleLiveGateSameSnapshots(t *testing.T) {
	p := mkModel(t, 10, 1, 2).ByPlatform["p"]
	q := *p
	q.Platform = "q"
	champ, err := models.NewClusterModel(p, &q)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	if err := reg.Add("v1", champ, registry.Meta{}); err != nil {
		t.Fatal(err)
	}
	st := startStack(t, reg, Config{ShadowSnapshots: 20}, serve.Config{Shards: 2}, nil)

	lawB := func(a, b float64) float64 { return 40 + 3*a + 0.5*b }
	i := 0
	trainChallenger(t, st, &i, 60, lawB)
	for ; i < 80; i++ {
		samples := append(snapshotSamples(i),
			online.Sample{MachineID: "q0", Platform: "q", Counters: []float64{float64(i % 5), 1}})
		metered := make([]float64, len(samples))
		for j, s := range samples {
			metered[j] = lawB(s.Counters[0], s.Counters[1])
		}
		if _, err := st.srv.Estimate(samples, 5*time.Second, metered); err != nil {
			t.Fatal(err)
		}
		st.step()
	}
	if s := st.orch.Status(); s.LastVerdict != "rejected" || reg.ActiveVersion() != "v1" {
		t.Errorf("status %+v, active %s: want the challenger rejected and v1 serving", s, reg.ActiveVersion())
	}
}

// TestLifecycleProbationRollback promotes a challenger fitted on
// distribution B, then snaps the live workload back to the champion's
// original distribution: the freshly promoted model regresses past the
// probation bound and must be rolled back automatically.
func TestLifecycleProbationRollback(t *testing.T) {
	st := newStack(t, Config{
		MinTrainSnapshots:  40,
		ShadowSnapshots:    20,
		ProbationSnapshots: 60,
	}, serve.Config{
		Shards:       2,
		BaselineRMSE: 1,
	})

	distB := func(a, b float64) float64 { return 40 + 3*a + 0.5*b }
	distC := func(a, b float64) float64 { return 10 + a + 2*b } // v1's own law

	i := 0
	driveUntil(t, st, &i, distB, 500, "promotion",
		func(s Status) bool { return s.Promotions >= 1 })
	promoted := st.reg.ActiveVersion()
	if promoted == "v1" {
		t.Fatal("expected a challenger to be active after promotion")
	}
	// The world changes back mid-probation: the promoted model is now the
	// wrong one.
	final := driveUntil(t, st, &i, distC, 60, "rollback",
		func(s Status) bool { return s.Rollbacks >= 1 })

	if active := st.reg.ActiveVersion(); active != "v1" {
		t.Errorf("active = %q after rollback, want v1", active)
	}
	if final.LastVerdict != "rolled_back" {
		t.Errorf("last verdict = %q, want rolled_back", final.LastVerdict)
	}
	if final.ProbationSnapshots > 60 {
		t.Errorf("rollback took %d probation snapshots, want within the window of 60", final.ProbationSnapshots)
	}
}

// eventLines hands each JSON event line the orchestrator emits to the
// test.
type eventLines chan string

func (c eventLines) Write(p []byte) (int, error) {
	c <- string(p)
	return len(p), nil
}

// TestLifecycleManualTriggerTooLittleData locks the fail-fast path and
// Start's loop: the loop serves a manual retrain with starving buffers,
// which must surface the online package's minimum-rows error in the
// status, leave the champion serving, and return the orchestrator to
// idle; Close then stops the loop.
func TestLifecycleManualTriggerTooLittleData(t *testing.T) {
	// Room for every event the run emits, so the loop never blocks on a
	// test that has stopped reading.
	events := make(eventLines, 64)
	st := newStack(t, Config{Events: obs.NewEventSink(events)}, serve.Config{Shards: 1})
	// Two labeled snapshots: plenty to prove liveness, far below the
	// features+intercept+1 floor.
	truth := func(a, b float64) float64 { return 10 + a + 2*b }
	for i := 0; i < 2; i++ {
		feedOne(t, st, i, truth)
	}
	if err := st.orch.Start(); err != nil {
		t.Fatal(err)
	}
	if err := st.orch.Start(); err == nil {
		t.Error("second Start accepted")
	}
	if err := st.orch.TriggerRetrain(""); err != nil {
		t.Fatal(err)
	}
	for served := false; !served; {
		select {
		case line := <-events:
			served = strings.Contains(line, `"event":"lifecycle_error"`)
		case <-time.After(time.Minute):
			t.Fatal("Start's loop never served the manual trigger")
		}
	}
	st.orch.Close()
	s := st.orch.Status()
	if s.State != "idle" || !strings.HasPrefix(s.LastError, "retrain: ") {
		t.Errorf("status %+v after a failed retrain, want idle with the retrain error", s)
	}
	if s.Promotions != 0 || st.reg.ActiveVersion() != "v1" {
		t.Errorf("failed retrain must not touch the active model: %+v", s)
	}
	if err := st.orch.TriggerRetrain("late"); err == nil {
		t.Error("trigger after Close accepted")
	}
}

// TestLifecycleRetrainLeavesEstimatesCounter: chaos_estimates_total counts
// cluster estimates. A retrain and its verdict replay the held-out window
// through the champion and the challenger; that replay answers no request,
// so the counter must not move while it runs.
func TestLifecycleRetrainLeavesEstimatesCounter(t *testing.T) {
	st := newStack(t, Config{}, serve.Config{Shards: 1})
	truth := func(a, b float64) float64 { return 10 + a + 2*b }
	for i := 0; i < 60; i++ {
		feedOne(t, st, i, truth)
	}
	estimates := obs.Default().Counter("chaos_estimates_total", nil)
	before := estimates.Value()
	if err := st.orch.TriggerRetrain("test"); err != nil {
		t.Fatal(err)
	}
	st.step() // fit and held-out scoring
	st.step() // verdict
	if s := st.orch.Status(); s.Retrains != 1 || s.LastVerdict == "" {
		t.Fatalf("status %+v, want one retrain and its verdict", s)
	}
	if got := estimates.Value(); got != before {
		t.Errorf("chaos_estimates_total moved by %g over a retrain and its verdict, want 0", got-before)
	}
}

// TestLifecycleIngestDropsMisSizedSnapshot: a snapshot with one mis-sized
// sample is dropped whole, so the well-formed sample before it must not
// reach the retrain buffers either: a challenger would train on a row the
// held-out window never saw.
func TestLifecycleIngestDropsMisSizedSnapshot(t *testing.T) {
	o, err := New(registry.New(), nopEngine{}, Config{Names: testNames, Spec: models.FeatureSpec{Name: "t", Counters: testNames}})
	if err != nil {
		t.Fatal(err)
	}
	o.Ingest([]online.Sample{
		{MachineID: "m0", Platform: "p", Counters: []float64{1, 2}},
		{MachineID: "m1", Platform: "p", Counters: []float64{1, 2, 3}},
	}, []float64{50, 60}, 110, "v1")
	if n := o.rt.Buffered("m0"); n != 0 {
		t.Errorf("machine m0 buffered %d rows from a dropped snapshot, want 0", n)
	}
	if s := o.Status(); s.HeldOutSnapshots != 0 || s.SnapshotsSinceRetrain != 0 {
		t.Errorf("status %+v, want the snapshot dropped", s)
	}
}

// TestLifecycleScoreWindow pins the scoring math: RMSE and DRE over a
// hand-computed window, the constant-load RMSE fallback, and the empty
// window.
func TestLifecycleScoreWindow(t *testing.T) {
	cm := mkModel(t, 0, 1, 0) // watts = a
	snap := func(a, actual float64) Snapshot {
		return Snapshot{
			Samples: []online.Sample{{MachineID: "m", Platform: "p", Counters: []float64{a, 0}}},
			Actual:  actual,
		}
	}
	// Predictions 1, 2, 3 vs actuals 2, 2, 6: errors -1, 0, -3.
	sc, err := ScoreWindow(cm, testNames, []Snapshot{snap(1, 2), snap(2, 2), snap(3, 6)})
	if err != nil {
		t.Fatal(err)
	}
	wantRMSE := math.Sqrt((1.0 + 0 + 9) / 3)
	if sc.N != 3 || math.Abs(sc.RMSE-wantRMSE) > 1e-12 {
		t.Errorf("score = %+v, want N=3 RMSE=%g", sc, wantRMSE)
	}
	if want := wantRMSE / 4; math.Abs(sc.DRE-want) > 1e-12 { // range 6-2
		t.Errorf("DRE = %g, want %g", sc.DRE, want)
	}
	// Constant actuals: no dynamic range, DRE falls back to RMSE.
	sc, err = ScoreWindow(cm, testNames, []Snapshot{snap(1, 5), snap(2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if sc.DRE != sc.RMSE {
		t.Errorf("constant-load DRE = %g, want RMSE fallback %g", sc.DRE, sc.RMSE)
	}
	// Empty window scores zero without error.
	sc, err = ScoreWindow(cm, testNames, nil)
	if err != nil || sc.N != 0 {
		t.Errorf("empty window = %+v, %v; want zero score, nil error", sc, err)
	}
}

// TestLifecycleConfigValidation locks constructor failure modes.
func TestLifecycleConfigValidation(t *testing.T) {
	reg := registry.New()
	cfg := Config{Names: testNames, Spec: models.FeatureSpec{Name: "t", Counters: testNames}}
	if _, err := New(nil, nopEngine{}, cfg); err == nil {
		t.Error("nil registry accepted")
	}
	if _, err := New(reg, nil, cfg); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(reg, nopEngine{}, Config{Names: testNames}); err == nil {
		t.Error("missing spec accepted")
	}
	if _, err := New(reg, nopEngine{}, Config{Spec: cfg.Spec}); err == nil {
		t.Error("missing names accepted")
	}
	o, err := New(reg, nopEngine{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.Close()
	o.Close() // idempotent
	if err := o.TriggerRetrain("x"); err == nil {
		t.Error("trigger after Close accepted")
	}
	if err := o.Start(); err == nil {
		t.Error("Start after Close accepted")
	}
}

// TestLifecycleFirstRetrainSkipsCooldown locks in the warmup semantics of
// the cooldown gate: before any retrain has run there is nothing to cool
// down from, so the first automatic trigger fires as soon as the minimum
// held-out window fills — a daemon that drifts seconds after boot must not
// sit out a 30-second cooldown it never earned. After a retrain the
// cooldown applies normally.
func TestLifecycleFirstRetrainSkipsCooldown(t *testing.T) {
	o, err := New(registry.New(), nopEngine{}, Config{
		Names:          testNames,
		Spec:           models.FeatureSpec{Name: "t", Counters: testNames},
		TriggerSamples: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1000, 0)
	// Fill the held-out window to the minimum the trigger waits for.
	for i := 0; i < o.cfg.MinTrainSnapshots; i++ {
		o.Ingest([]online.Sample{{MachineID: "m0", Platform: "P", Counters: []float64{1, 2}}}, []float64{50}, 0, "")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if got := o.heldout.Len(); got != o.cfg.MinTrainSnapshots {
		t.Fatalf("held-out window holds %d snapshots, want %d", got, o.cfg.MinTrainSnapshots)
	}
	o.sinceRetrain = o.cfg.TriggerSamples

	if reason, ok := o.triggerLocked(clock); !ok || reason != "samples" {
		t.Fatalf("first trigger = (%q, %v), want (samples, true): startup must not be cooled down", reason, ok)
	}
	// A completed retrain arms the cooldown; the same conditions must now
	// be blocked until it elapses.
	o.lastRetrain = clock
	o.sinceRetrain = o.cfg.TriggerSamples
	if reason, ok := o.triggerLocked(clock.Add(cooldown - time.Second)); ok {
		t.Fatalf("trigger %q fired inside the cooldown", reason)
	}
	if reason, ok := o.triggerLocked(clock.Add(cooldown)); !ok || reason != "samples" {
		t.Fatalf("post-cooldown trigger = (%q, %v), want (samples, true)", reason, ok)
	}
}
