package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

func TestLiveLoopDetectsAndRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("live loop in -short mode")
	}
	var sb strings.Builder
	cfg := config{Platform: "Core2", Machines: 2, Train: "Prime",
		Stream: []string{"Prime", "Sort"}, Seed: 7}
	if err := run(&sb, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "DRIFT") {
		t.Error("workload switch did not trigger drift")
	}
	if !strings.Contains(out, "promoted: now serving auto-") {
		t.Error("no promotion after drift")
	}
	if !strings.Contains(out, "stream complete") {
		t.Error("stream did not finish")
	}
}

func TestLiveLoopValidation(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, config{Platform: "PDP11", Machines: 2, Train: "Prime",
		Stream: []string{"Prime"}, Seed: 1}); err == nil {
		t.Error("expected error for unknown platform")
	}
	if err := run(&sb, config{Platform: "Core2", Machines: 2, Train: "FizzBuzz",
		Stream: []string{"Prime"}, Seed: 1}); err == nil {
		t.Error("expected error for unknown training workload")
	}
	if err := run(&sb, config{Platform: "Core2", Machines: 2, Train: "Prime",
		Stream: []string{"Prime"}, Seed: 1, Listen: "256.0.0.1:bad"}); err == nil {
		t.Error("expected error for bad listen address")
	}
}

// TestLiveLoopJSONEvents runs the loop in -json mode and checks every
// output line is a well-formed event with the documented schema, that the
// lifecycle answers the drift at the Prime -> Sort switch with a
// promotion, and that the promoted model brings the next minute's error
// under the 3.47 W the stale model read there.
func TestLiveLoopJSONEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("live loop in -short mode")
	}
	var sb strings.Builder
	cfg := config{Platform: "Core2", Machines: 2, Train: "Prime",
		Stream: []string{"Prime", "Sort"}, Seed: 7, JSON: true}
	if err := run(&sb, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	seen := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	lastSeq := float64(0)
	verdict := "" // the first shadow verdict after the first drift
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("non-JSON line in -json mode: %q: %v", sc.Text(), err)
		}
		name, _ := ev["event"].(string)
		seen[name]++
		switch {
		case name == "shadow_verdict" && seen["drift"] == 1 && verdict == "":
			verdict = fmt.Sprintf("promote=%v", ev["promote"])
		case name == "estimate" && ev["t_s"] == 780.0:
			if e, _ := ev["mean_abs_err_w"].(float64); e <= 0 || e >= 3.47 {
				t.Errorf("mean abs err %v W in the minute ending at 780 s, want (0, 3.47)", ev["mean_abs_err_w"])
			}
		}
		seq, _ := ev["seq"].(float64)
		if seq <= lastSeq {
			t.Errorf("seq not monotone: %v after %v", seq, lastSeq)
		}
		lastSeq = seq
		if _, ok := ev["ts"].(string); !ok {
			t.Errorf("event %q missing ts", name)
		}
	}
	for _, want := range []string{"train", "stream_start", "estimate", "drift",
		"retrain_triggered", "challenger_trained", "shadow_verdict", "promoted", "complete"} {
		if seen[want] == 0 {
			t.Errorf("no %q event emitted; saw %v", want, seen)
		}
	}
	if verdict != "promote=true" {
		t.Errorf("the first drift was followed by the verdict %q, want promote=true", verdict)
	}
}

// TestLiveLoopPromotionsSurviveProbation: on seeds 1 and 7 every
// promotion the lifecycle makes survives its probation. Judged on the
// snapshots that arrive after its fit, a challenger that is promoted
// holds up on the traffic that follows, so no rolled_back event appears.
func TestLiveLoopPromotionsSurviveProbation(t *testing.T) {
	if testing.Short() {
		t.Skip("live loop in -short mode")
	}
	for _, seed := range []int64{1, 7} {
		seen := map[string]int{}
		for _, ev := range runJSON(t, config{Platform: "Core2", Machines: 2, Train: "Prime",
			Stream: []string{"Prime", "Sort"}, Seed: seed}) {
			name, _ := ev["event"].(string)
			seen[name]++
		}
		if seen["promoted"] == 0 || seen["rolled_back"] != 0 {
			t.Errorf("seed %d: %d promoted, %d rolled_back; want promotions and no rollback",
				seed, seen["promoted"], seen["rolled_back"])
		}
	}
}

// TestLiveLoopLifecycleEventsCarryTime runs the crashy scenario in
// degraded mode: every lifecycle event carries t_s, the simulated second
// the lifecycle was stepped at; t_s never decreases from one lifecycle
// event to the next; and a drift-triggered retrain_triggered always
// follows a drift event raised since the alarm was last reset (by a
// verdict or a rollback), never precedes it.
func TestLiveLoopLifecycleEventsCarryTime(t *testing.T) {
	if testing.Short() {
		t.Skip("live loop in -short mode")
	}
	evs := runJSON(t, config{Platform: "Core2", Machines: 2, Train: "Prime",
		Stream: []string{"Prime", "Sort"}, Seed: 7,
		Faults: "../../examples/faults-crashy.json", Degraded: true})
	lifecycleEvents := map[string]bool{"retrain_triggered": true, "challenger_trained": true,
		"shadow_verdict": true, "promoted": true, "rolled_back": true, "lifecycle_error": true}
	last, drift, seen := -1.0, -1.0, 0
	for _, ev := range evs {
		name, _ := ev["event"].(string)
		tS, hasT := ev["t_s"].(float64)
		if name == "drift" {
			drift = tS
		}
		if !lifecycleEvents[name] {
			continue
		}
		seen++
		if !hasT {
			t.Errorf("lifecycle event %v has no t_s", ev)
			continue
		}
		if tS < last {
			t.Errorf("%s at t_s=%v after a lifecycle event at %v", name, tS, last)
		}
		last = tS
		switch {
		case name == "retrain_triggered" && ev["reason"] == "drift":
			if drift < 0 || drift > tS {
				t.Errorf("drift-triggered retrain at t_s=%v, but the pending drift is at %v", tS, drift)
			}
		case name == "shadow_verdict" || name == "rolled_back":
			drift = -1 // the alarm re-arms
		}
	}
	if seen == 0 {
		t.Error("no lifecycle event emitted")
	}
}

// TestLiveLoopDeterministic runs chaos-live twice on one seed, on the
// default stream and again with the crashy fault scenario in degraded
// mode: the two -json event streams must be identical once the wall-clock
// fields (each event's ts, a challenger's train_ms) are masked.
func TestLiveLoopDeterministic(t *testing.T) {
	base := config{Platform: "Core2", Machines: 3, Train: "Prime",
		Stream: []string{"Prime", "Sort"}, Seed: 7}
	faulted := base
	faulted.Faults, faulted.Degraded = "../../examples/faults-crashy.json", true
	for name, cfg := range map[string]config{"default": base, "faulted": faulted} {
		var runs [2][]map[string]any
		for r := range runs {
			runs[r] = runJSON(t, cfg)
			for _, ev := range runs[r] {
				delete(ev, "ts")
				delete(ev, "train_ms")
			}
		}
		a, _ := json.Marshal(runs[0])
		b, _ := json.Marshal(runs[1])
		if string(a) != string(b) {
			t.Errorf("%s: two runs on seed 7 emitted different event streams", name)
		}
		if len(runs[0]) < 10 {
			t.Errorf("%s: only %d events", name, len(runs[0]))
		}
	}
}

// syncWriter lets the test read run()'s output while the loop is still
// streaming in another goroutine.
type syncWriter struct {
	mu sync.Mutex
	sb strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.String()
}

// TestLiveLoopServesMetrics is the acceptance check for the observability
// layer: with -listen, /healthz answers 200 and /metrics exposes at least
// 10 distinct series while the stream is running.
func TestLiveLoopServesMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("live loop in -short mode")
	}
	w := &syncWriter{}
	// holdOpen keeps the metrics server up after the stream completes until
	// the test releases it, so the probes below can never race the server
	// shutdown regardless of how fast the run finishes.
	loopDone := make(chan struct{})
	release := make(chan struct{})
	cfg := config{Platform: "Core2", Machines: 2, Train: "Prime",
		Stream: []string{"Prime", "Sort"}, Seed: 7, Listen: "127.0.0.1:0",
		holdOpen: func() { close(loopDone); <-release }}
	done := make(chan error, 1)
	go func() { done <- run(w, cfg) }()

	// Wait for the listening line to learn the bound port.
	addrRe := regexp.MustCompile(`http://([^/]+)/metrics`)
	var addr string
	// Generous: training takes a few seconds normally but tens of seconds
	// under the race detector.
	deadline := time.Now().Add(2 * time.Minute)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("server address never printed")
		}
		if m := addrRe.FindStringSubmatch(w.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	// Wait for training to finish (the "trained" line) so the spans and
	// collector gauges of the training phase are all published, then probe
	// while the run is still in flight (the stream phase is still ahead).
	for !strings.Contains(w.String(), "trained") {
		if time.Now().After(deadline) {
			t.Fatal("training never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz during stream: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp.StatusCode)
	}
	midResp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("metrics during stream: %v", err)
	}
	midScrape, _ := io.ReadAll(midResp.Body)
	midResp.Body.Close()
	if midResp.StatusCode != http.StatusOK {
		t.Errorf("/metrics = %d, want 200", midResp.StatusCode)
	}
	if !strings.Contains(string(midScrape), "chaos_") {
		t.Error("mid-stream scrape has no chaos_ series")
	}

	// Wait for the loop to finish (the server is still held open), then
	// take the final scrape: the full series set — drift and retrain
	// counters included — must have accumulated by stream end.
	select {
	case <-loopDone:
	case err := <-done:
		t.Fatalf("run exited before completing the stream: %v", err)
	}
	finalResp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("metrics after stream: %v", err)
	}
	body, _ := io.ReadAll(finalResp.Body)
	finalResp.Body.Close()
	checkSeries(t, string(body))

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// runJSON runs the loop in -json mode and parses every event line.
func runJSON(t *testing.T, cfg config) []map[string]any {
	t.Helper()
	var sb strings.Builder
	cfg.JSON = true
	if err := run(&sb, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	var evs []map[string]any
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("non-JSON line in -json mode: %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// degradedEstimateAt returns the degraded_estimate event for the minute
// ending at tS.
func degradedEstimateAt(t *testing.T, evs []map[string]any, tS float64) (float64, float64, map[string]any) {
	t.Helper()
	for _, ev := range evs {
		if ev["event"] == "degraded_estimate" && ev["t_s"] == tS {
			est, _ := ev["est_w"].(float64)
			cov, _ := ev["coverage"].(float64)
			machines, _ := ev["machines"].(map[string]any)
			return est, cov, machines
		}
	}
	t.Fatalf("no degraded_estimate event at t_s=%v", tS)
	return 0, 0, nil
}

// TestFaultCrashDegradedEndToEnd is the acceptance scenario for the
// fault-injection harness: crash 1 of 5 machines mid-stream with
// -degraded on. The loop must keep emitting estimates every second,
// coverage must drop to 0.8 for the fully-down minute, health must walk
// live -> stale -> down -> recovered, no estimate may be NaN, and the
// surviving machines' estimates must stay within tolerance of a
// fault-free run of the same stream.
func TestFaultCrashDegradedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("two full live loops in -short mode")
	}
	const crashed = "Core2-0"
	// Crash-only scenario: the down window [120, 270) fully covers the
	// minute [180, 240), so that minute's coverage is exactly 4/5.
	scen := &faults.Scenario{
		Name:    "crash-one",
		Crashes: []faults.Crash{{Machine: crashed, AtS: 120, DowntimeS: 150}},
	}
	cfg := config{Platform: "Core2", Machines: 5, Train: "Prime",
		Stream: []string{"Prime"}, Seed: 7, Degraded: true}
	baseEvs := runJSON(t, cfg)
	faultCfg := cfg
	faultCfg.scenario = scen
	faultEvs := runJSON(t, faultCfg)

	// Health transitions for the crashed machine, in stream order.
	var transitions []string
	var staleAt, downAt, recoveredAt float64
	for _, ev := range faultEvs {
		name, _ := ev["event"].(string)
		if name != "machine_stale" && name != "machine_down" && name != "machine_recovered" {
			continue
		}
		if ev["machine"] != crashed {
			t.Errorf("health transition %s for unexpected machine %v", name, ev["machine"])
			continue
		}
		transitions = append(transitions, name)
		tS, _ := ev["t_s"].(float64)
		switch name {
		case "machine_stale":
			staleAt = tS
		case "machine_down":
			downAt = tS
		case "machine_recovered":
			recoveredAt = tS
		}
	}
	if got, want := strings.Join(transitions, ","), "machine_stale,machine_down,machine_recovered"; got != want {
		t.Fatalf("health transitions = %q, want %q", got, want)
	}
	if staleAt != 120 {
		t.Errorf("stale at t=%v, want 120 (first silent second)", staleAt)
	}
	if downAt <= staleAt || downAt > 140 {
		t.Errorf("down at t=%v, want shortly after stale (TTL expiry)", downAt)
	}
	// The breaker quarantines the machine between half-open probes, so
	// recovery lands within one cooldown of the crash window's end (270).
	if recoveredAt < 270 || recoveredAt > 270+float64(faults.DefaultBreaker().CooldownSeconds) {
		t.Errorf("recovered at t=%v, want within one breaker cooldown of 270", recoveredAt)
	}

	// The fully-down minute: coverage 0.8, crashed machine contributes 0,
	// and every estimate in both runs is finite (a NaN anywhere would
	// already have failed JSON marshalling and aborted the run).
	faultEst, faultCov, faultMachines := degradedEstimateAt(t, faultEvs, 240)
	baseEst, baseCov, baseMachines := degradedEstimateAt(t, baseEvs, 240)
	if faultCov != 0.8 {
		t.Errorf("coverage during crash = %v, want 0.8", faultCov)
	}
	if baseCov != 1 {
		t.Errorf("fault-free coverage = %v, want 1", baseCov)
	}
	if w, _ := faultMachines[crashed].(float64); w != 0 {
		t.Errorf("down machine mean estimate = %v W, want 0", w)
	}
	if math.IsNaN(faultEst) || math.IsInf(faultEst, 0) {
		t.Fatalf("non-finite degraded estimate %v", faultEst)
	}

	// Surviving machines see identical counter streams in both runs, so
	// their estimates must agree closely; the cluster estimate must equal
	// the fault-free one minus the crashed machine's share.
	const tol = 0.5
	crashedShare, _ := baseMachines[crashed].(float64)
	for id, v := range baseMachines {
		if id == crashed {
			continue
		}
		bw, _ := v.(float64)
		fw, _ := faultMachines[id].(float64)
		if math.Abs(bw-fw) > tol {
			t.Errorf("surviving machine %s drifted: %v W faulted vs %v W clean", id, fw, bw)
		}
	}
	if math.Abs(faultEst-(baseEst-crashedShare)) > tol {
		t.Errorf("degraded cluster estimate %v W, want %v (fault-free %v minus crashed share %v)",
			faultEst, baseEst-crashedShare, baseEst, crashedShare)
	}

	// After recovery the cluster is whole again.
	_, finalCov, _ := degradedEstimateAt(t, faultEvs, 720)
	if finalCov != 1 {
		t.Errorf("post-recovery coverage = %v, want 1", finalCov)
	}
	// The loop never skipped a second: degraded mode always estimates.
	for _, ev := range faultEvs {
		if ev["event"] == "complete" {
			if skipped, _ := ev["skipped_s"].(float64); skipped != 0 {
				t.Errorf("degraded run skipped %v seconds", skipped)
			}
		}
	}
}

// checkSeries asserts the scrape carries >= 10 distinct series including
// the families named in the acceptance criteria.
func checkSeries(t *testing.T, scrape string) {
	t.Helper()
	series := map[string]bool{}
	for _, line := range strings.Split(scrape, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.IndexByte(line, ' '); i > 0 {
			series[line[:i]] = true
		}
	}
	if len(series) < 10 {
		t.Errorf("scrape has %d distinct series, want >= 10", len(series))
	}
	for _, want := range []string{
		"chaos_span_seconds_count", "chaos_residual_watts_count",
		"chaos_drift_alarms_total", "chaos_collector_overhead_worst_fraction",
		"chaos_estimates_total", "chaos_retrains_total",
	} {
		found := false
		for s := range series {
			if strings.HasPrefix(s, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("scrape missing family %s", want)
		}
	}
}

// TestPlainLoopKeepsEveryMinute crashes both machines of a plain (not
// -degraded) run twice: over [50, 130), so the minute ending at 120 has no
// estimate at all, and over [830, 850), after the Prime -> Sort switch.
// Every minute must still emit exactly one estimate event, its metered
// cluster power must be that minute's alone (the -degraded run, which
// never skips a second, reads the same), and a minute without estimates
// must carry no error figure rather than a NaN.
func TestPlainLoopKeepsEveryMinute(t *testing.T) {
	if testing.Short() {
		t.Skip("two full live loops in -short mode")
	}
	scen := &faults.Scenario{Name: "blackouts"}
	for _, m := range []string{"Core2-0", "Core2-1"} {
		scen.Crashes = append(scen.Crashes,
			faults.Crash{Machine: m, AtS: 50, DowntimeS: 80},
			faults.Crash{Machine: m, AtS: 830, DowntimeS: 20})
	}
	cfg := config{Platform: "Core2", Machines: 2, Train: "Prime",
		Stream: []string{"Prime", "Sort"}, Seed: 7, scenario: scen}
	plain := runJSON(t, cfg)
	cfg.Degraded = true
	degraded := runJSON(t, cfg)

	clusterW := func(evs []map[string]any) map[float64][]float64 {
		out := map[float64][]float64{}
		for _, ev := range evs {
			if ev["event"] == "estimate" {
				tS, _ := ev["t_s"].(float64)
				w, _ := ev["cluster_w"].(float64)
				out[tS] = append(out[tS], w)
			}
		}
		return out
	}
	got, want := clusterW(plain), clusterW(degraded)
	var seconds float64
	for _, ev := range plain {
		if ev["event"] == "stream_start" {
			seconds, _ = ev["seconds"].(float64)
		}
	}
	minutes := int(seconds) / 60
	if minutes < 14 || len(got) != minutes || len(want) != minutes {
		t.Fatalf("%v s streamed: %d plain and %d degraded estimate minutes, want %d each",
			seconds, len(got), len(want), minutes)
	}
	for m := 1; m <= minutes; m++ {
		tS := float64(60 * m)
		if len(got[tS]) != 1 || len(want[tS]) != 1 {
			t.Fatalf("t=%v s: %d plain and %d degraded estimate events, want 1 each", tS, len(got[tS]), len(want[tS]))
		}
		if got[tS][0] != want[tS][0] {
			t.Errorf("t=%v s: plain cluster %v W, want the degraded run's %v W", tS, got[tS][0], want[tS][0])
		}
	}

	for _, ev := range plain {
		if ev["event"] != "estimate" {
			continue
		}
		tS, _ := ev["t_s"].(float64)
		meanErr, ok := ev["mean_abs_err_w"].(float64)
		if tS == 120 && ok {
			t.Errorf("the minute with no estimate reports a mean abs err of %v W", meanErr)
		}
		if tS != 120 && (!ok || meanErr <= 0) {
			t.Errorf("t=%v s: mean abs err %v, want a positive figure", tS, ev["mean_abs_err_w"])
		}
	}
}
