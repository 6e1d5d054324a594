package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/obs"
	"repro/internal/serve"
)

// parseEvents decodes the JSON event lines a -json run emits, keyed by
// event name (last occurrence wins).
func parseEvents(t *testing.T, out string) map[string]map[string]any {
	t.Helper()
	events := map[string]map[string]any{}
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("non-JSON event line %q: %v", line, err)
		}
		name, _ := ev["event"].(string)
		events[name] = ev
	}
	return events
}

// TestServeBootstrapTracksMeter boots the daemon on its simulated
// bootstrap and checks the model is accurate on its own data: the
// trained event's baseline rMSE is a few watts, not garbage, and so is
// the mean error of served estimates of simulated snapshots against
// their metered power.
func TestServeBootstrapTracksMeter(t *testing.T) {
	var stdout bytes.Buffer
	cfg := config{
		Listen: "127.0.0.1:0", JSON: true,
		Platform: "Core2", Machines: 2, Workloads: []string{"Prime"}, Seed: 7, Tech: "linear",
	}
	probed := false
	cfg.holdOpen = func(addr string) {
		probed = true
		// The simulation is deterministic in cfg: these are the traces
		// the bootstrap trained on.
		traces, err := simTraces(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var breq serve.BatchRequest
		var metered []float64
		for sec := 0; sec < traces[0].Len(); sec += 10 {
			var req serve.EstimateRequest
			sum := 0.0
			for _, tr := range traces {
				req.Samples = append(req.Samples, serve.SampleJSON{
					MachineID: tr.MachineID, Platform: tr.Platform, Counters: tr.X.Row(sec),
				})
				sum += tr.Power[sec]
			}
			breq.Requests = append(breq.Requests, req)
			metered = append(metered, sum)
		}
		body, _ := json.Marshal(breq)
		resp, err := http.Post("http://"+addr+"/v1/estimate/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var br serve.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(br.Results) != len(metered) {
			t.Fatalf("batch = %d with %d results, want 200 with %d", resp.StatusCode, len(br.Results), len(metered))
		}
		sumAbs, sumMetered := 0.0, 0.0
		for i, r := range br.Results {
			if r.Status != http.StatusOK || r.ModelVersion != "v1" {
				t.Fatalf("snapshot %d = %d version %q, want 200/v1", i, r.Status, r.ModelVersion)
			}
			sumAbs += math.Abs(r.ClusterWatts - metered[i])
			sumMetered += metered[i]
		}
		// The two-machine cluster draws ~50-70 W, so the error bound is
		// relative: within 5% of the mean metered power.
		if got, bound := sumAbs/float64(len(metered)), 0.05*sumMetered/float64(len(metered)); got <= 0 || got > bound {
			t.Errorf("mean abs cluster error = %g W over %d snapshots, want (0, %g]", got, len(metered), bound)
		}
	}
	if err := run(&stdout, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !probed {
		t.Fatal("holdOpen hook never ran")
	}
	trained := parseEvents(t, stdout.String())["trained"]
	if trained == nil {
		t.Fatalf("missing trained event in output:\n%s", stdout.String())
	}
	if got := trained["baseline_rmse_w"].(float64); got <= 0 || got > 50 {
		t.Errorf("baseline_rmse_w = %g, want (0, 50]", got)
	}
}

// TestServeOverloadSheds squeezes the engine through its flags (1 shard,
// queue depth 1, batch of 1) and checks that overload surfaces as 429
// sheds — never as failures or an unbounded queue. Each request is a
// snapshot of 16 machines, all on the one shard: it fills the one-slot
// queue faster than the worker drains it one sample at a time, so it
// sheds on its own, whether or not the 8 senders' requests overlap.
func TestServeOverloadSheds(t *testing.T) {
	cfg, err := parseConfig([]string{
		"-listen", "127.0.0.1:0",
		"-machines", "2", "-workloads", "Prime",
		"-shards", "1", "-queue", "1", "-batch-max", "1", "-batch-window", "1ms",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	byStatus := map[int]int{} // 0: transport error
	cfg.holdOpen = func(addr string) {
		row := make([]float64, len(counters.StandardRegistry().Names()))
		var req serve.EstimateRequest
		for m := 0; m < 16; m++ {
			req.Samples = append(req.Samples, serve.SampleJSON{
				MachineID: "m" + strconv.Itoa(m), Platform: "Core2", Counters: row})
		}
		body, _ := json.Marshal(req)
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
		defer client.CloseIdleConnections()
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					status := 0
					resp, err := client.Post("http://"+addr+"/v1/estimate", "application/json", bytes.NewReader(body))
					if err == nil {
						io.Copy(io.Discard, resp.Body) //nolint:errcheck
						resp.Body.Close()
						status = resp.StatusCode
					}
					mu.Lock()
					byStatus[status]++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	if err := run(io.Discard, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	for status, n := range byStatus {
		switch status {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusGatewayTimeout:
		default:
			t.Errorf("%d request(s) answered %d — overload must shed, not fail", n, status)
		}
	}
	if byStatus[http.StatusTooManyRequests] == 0 {
		t.Errorf("no 429 in %v despite 16-machine snapshots at queue depth 1", byStatus)
	}
}

// TestServeDaemonServesAPI starts daemon mode via the holdOpen hook and
// probes the live endpoints: health, model listing, estimation, metrics.
func TestServeDaemonServesAPI(t *testing.T) {
	var stdout bytes.Buffer
	probed := false
	cfg := config{
		Listen: "127.0.0.1:0", JSON: true,
		Platform: "Core2", Machines: 2, Workloads: []string{"Prime"}, Seed: 7, Tech: "linear",
		holdOpen: func(addr string) {
			probed = true
			base := "http://" + addr

			resp, err := http.Get(base + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/healthz = %d", resp.StatusCode)
			}

			resp, err = http.Get(base + "/v1/models")
			if err != nil {
				t.Fatal(err)
			}
			var list struct {
				Active string           `json:"active"`
				Models []map[string]any `json:"models"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if list.Active != "v1" || len(list.Models) != 2 {
				t.Errorf("models = active %q with %d versions, want v1 with 2", list.Active, len(list.Models))
			}

			// Estimate a zero counter row (full stream width).
			row := make([]float64, len(counters.StandardRegistry().Names()))
			body, _ := json.Marshal(map[string]any{
				"samples": []map[string]any{
					{"machine_id": "m0", "platform": "Core2", "counters": row},
				},
			})
			resp, err = http.Post(base+"/v1/estimate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var er struct {
				Status       int     `json:"status"`
				ModelVersion string  `json:"model_version"`
				ClusterWatts float64 `json:"cluster_watts"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || er.ModelVersion != "v1" {
				t.Errorf("estimate = %d version %q, want 200/v1", resp.StatusCode, er.ModelVersion)
			}
			if er.ClusterWatts <= 0 {
				t.Errorf("idle-row estimate = %g W, want > 0", er.ClusterWatts)
			}

			resp, err = http.Get(base + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body) //nolint:errcheck
			resp.Body.Close()
			if !strings.Contains(buf.String(), "chaos_serve_samples_total") {
				t.Error("/metrics missing chaos_serve_samples_total")
			}
		},
	}
	if err := run(&stdout, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !probed {
		t.Fatal("holdOpen hook never ran")
	}
}

// TestServeBadFlagsAndModelPath locks the CLI failure modes: unknown
// flags exit 2; a missing model file, or -faults without -peers, exits 1
// with a single clear line.
func TestServeBadFlagsAndModelPath(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}

	// Retired flags are unknown too: the load generator's and the
	// wall-clock lifecycle trigger's.
	for _, f := range []string{"-loadgen", "-rate", "-snapshots", "-clients", "-batch", "-swap-every", "-priorities", "-lifecycle-interval"} {
		if code := realMain([]string{f, "1"}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", f, code)
		}
	}

	stderr.Reset()
	code := realMain([]string{"-listen", "127.0.0.1:0", "-model", "/nonexistent/model.json"}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("missing model: exit %d, want 1", code)
	}
	msg := strings.TrimSpace(stderr.String())
	if !strings.HasPrefix(msg, "chaos-serve:") || strings.Contains(msg, "\n") {
		t.Errorf("missing model should produce one chaos-serve: line, got %q", msg)
	}
	if !strings.Contains(msg, "/nonexistent/model.json") && !strings.Contains(msg, "no such file") {
		t.Errorf("error should mention the cause: %q", msg)
	}

	// -faults configures the -peers front door; alone it must not be
	// silently ignored.
	stderr.Reset()
	code = realMain([]string{"-listen", "127.0.0.1:0", "-faults", "../../examples/faults-crashy.json"}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("-faults without -peers: exit %d, want 1", code)
	}
	msg = strings.TrimSpace(stderr.String())
	if !strings.HasPrefix(msg, "chaos-serve:") || strings.Contains(msg, "\n") || !strings.Contains(msg, "-peers") {
		t.Errorf("-faults without -peers should produce one chaos-serve: line naming -peers, got %q", msg)
	}
}

// TestLifecycleServeDaemonEndpoints boots the daemon with -lifecycle
// semantics and probes the lifecycle API: status reports the idle state
// machine, a manual retrain is accepted (202) and — with empty buffers —
// surfaces the online package's fail-fast error in the status rather than
// promoting anything.
func TestLifecycleServeDaemonEndpoints(t *testing.T) {
	var stdout bytes.Buffer
	probed := false
	cfg := config{
		Listen: "127.0.0.1:0", JSON: true,
		Platform: "Core2", Machines: 2, Workloads: []string{"Prime"}, Seed: 7, Tech: "linear",
		Lifecycle: true, PromoteMargin: 0.05, Probation: 8,
		holdOpen: func(addr string) {
			probed = true
			base := "http://" + addr

			resp, err := http.Get(base + "/v1/lifecycle/status")
			if err != nil {
				t.Fatal(err)
			}
			var st map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/v1/lifecycle/status = %d, want 200", resp.StatusCode)
			}
			if st["state"] != "idle" || st["champion"] != "v1" {
				t.Errorf("status = %+v, want idle with champion v1", st)
			}

			// GET on the retrain endpoint is refused.
			resp, err = http.Get(base + "/v1/lifecycle/retrain")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("GET /v1/lifecycle/retrain = %d, want 405", resp.StatusCode)
			}

			// A bare POST is a manual trigger: accepted asynchronously.
			resp, err = http.Post(base+"/v1/lifecycle/retrain", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST /v1/lifecycle/retrain = %d, want 202", resp.StatusCode)
			}

			// With nothing buffered the retrain fails fast; the error lands
			// in the status and the champion keeps serving.
			deadline := time.Now().Add(30 * time.Second)
			for {
				resp, err := http.Get(base + "/v1/lifecycle/status")
				if err != nil {
					t.Fatal(err)
				}
				st = map[string]any{}
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if msg, _ := st["last_error"].(string); msg != "" {
					if !strings.Contains(msg, "retrain") {
						t.Errorf("last_error = %q, want a retrain failure", msg)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("retrain failure never surfaced; status %+v", st)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if st["champion"] != "v1" {
				t.Errorf("champion = %v after failed retrain, want v1", st["champion"])
			}
		},
	}
	if err := run(&stdout, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !probed {
		t.Fatal("holdOpen hook never ran")
	}
}

// TestLifecycleServeDisabled locks the default: without -lifecycle the
// endpoints answer 404.
func TestLifecycleServeDisabled(t *testing.T) {
	var stdout bytes.Buffer
	cfg := config{
		Listen: "127.0.0.1:0", JSON: true,
		Platform: "Core2", Machines: 2, Workloads: []string{"Prime"}, Seed: 7, Tech: "linear",
		holdOpen: func(addr string) {
			for _, probe := range []func() (*http.Response, error){
				func() (*http.Response, error) { return http.Get("http://" + addr + "/v1/lifecycle/status") },
				func() (*http.Response, error) {
					return http.Post("http://"+addr+"/v1/lifecycle/retrain", "application/json", nil)
				},
			} {
				resp, err := probe()
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("lifecycle endpoint without -lifecycle = %d, want 404", resp.StatusCode)
				}
			}
		},
	}
	if err := run(&stdout, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestServeObservabilityWiring boots the daemon with tracing, SLOs, and
// a rotating event log all enabled, and checks each surface: a
// traceparent-tagged request is retrievable at /debug/traces,
// /v1/version reports build identity, /metrics carries chaos_build_info
// and the SLO gauges, and the event log file holds the JSON events.
func TestServeObservabilityWiring(t *testing.T) {
	var stdout bytes.Buffer
	eventLog := t.TempDir() + "/events.jsonl"
	traceID := obs.NewTraceID()
	probed := false
	cfg := config{
		Listen: "127.0.0.1:0", JSON: true,
		Platform: "Core2", Machines: 2, Workloads: []string{"Prime"}, Seed: 7, Tech: "linear",
		TraceSample: 1, TraceBuffer: 32, TraceSlow: time.Second,
		SLODre: 0.5, SLOWindow: 8,
		EventLog: eventLog, EventLogMaxBytes: 1 << 20,
		holdOpen: func(addr string) {
			probed = true
			base := "http://" + addr

			// A tagged estimate lands in the trace store under its own ID.
			row := make([]float64, len(counters.StandardRegistry().Names()))
			body, _ := json.Marshal(map[string]any{
				"samples": []map[string]any{
					{"machine_id": "m0", "platform": "Core2", "counters": row},
				},
			})
			req, _ := http.NewRequest("POST", base+"/v1/estimate", bytes.NewReader(body))
			req.Header.Set("traceparent", obs.FormatTraceparent(traceID, obs.NewSpanID()))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("estimate = %d", resp.StatusCode)
			}
			resp, err = http.Get(base + "/debug/traces/" + traceID)
			if err != nil {
				t.Fatal(err)
			}
			var td map[string]any
			json.NewDecoder(resp.Body).Decode(&td) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || td["trace_id"] != traceID {
				t.Errorf("/debug/traces/%s = %d %v", traceID, resp.StatusCode, td["trace_id"])
			}

			// Version endpoint: build identity plus the active model.
			resp, err = http.Get(base + "/v1/version")
			if err != nil {
				t.Fatal(err)
			}
			var ver map[string]any
			json.NewDecoder(resp.Body).Decode(&ver) //nolint:errcheck
			resp.Body.Close()
			if ver["go_version"] == nil || ver["active_model"] != "v1" {
				t.Errorf("/v1/version = %v", ver)
			}

			// Metrics: build info and the SLO objective gauge.
			resp, err = http.Get(base + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body) //nolint:errcheck
			resp.Body.Close()
			for _, want := range []string{"chaos_build_info{", `chaos_slo_objective{slo="accuracy"} 0.5`} {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("/metrics missing %s", want)
				}
			}
		},
	}
	if err := run(&stdout, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !probed {
		t.Fatal("holdOpen hook never ran")
	}
	// The event log holds the same JSON events the console saw.
	data, err := os.ReadFile(eventLog)
	if err != nil {
		t.Fatalf("event log not written: %v", err)
	}
	for _, want := range []string{`"event":"trained"`, `"event":"serving"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("event log missing %s:\n%s", want, data)
		}
	}
}
