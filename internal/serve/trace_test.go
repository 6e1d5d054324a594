package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// getJSON fetches url and decodes the body into v.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// TestTraceEndToEndPropagation drives the acceptance criterion: a request
// issued with a caller-supplied trace ID is retrievable from
// /debug/traces with queue/batch/predict/respond spans whose breakdown
// sums to within the measured total, and the latency histogram carries
// the trace ID as an exemplar.
func TestTraceEndToEndPropagation(t *testing.T) {
	ts := obs.NewTraceStore(64, time.Second)
	_, base := newTestServer(t, Config{Traces: ts, TraceSample: -1})

	traceID := obs.NewTraceID()
	parent := obs.NewSpanID()
	body, _ := json.Marshal(EstimateRequest{Samples: []SampleJSON{
		sample("m0", 1, 2), sample("m1", 3, 4), sample("m2", 5, 6),
	}})
	req, err := http.NewRequest("POST", base+"/v1/estimate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", obs.FormatTraceparent(traceID, parent))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// The response echoes the trace: header and body both carry the ID.
	gotT, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || gotT != traceID {
		t.Fatalf("response traceparent %q does not carry trace %s", resp.Header.Get("traceparent"), traceID)
	}
	var er EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.TraceID != traceID {
		t.Fatalf("response trace_id %q, want %s", er.TraceID, traceID)
	}

	// Retrieve the trace and check the span breakdown.
	var td obs.TraceData
	if code := getJSON(t, base+"/debug/traces/"+traceID, &td); code != 200 {
		t.Fatalf("trace fetch status %d", code)
	}
	if !td.External || td.Status != "ok" {
		t.Fatalf("trace external=%v status=%q", td.External, td.Status)
	}
	// Per machine: queue, batch, predict. Plus one respond span.
	byName := map[string]int{}
	perMachine := map[string]time.Duration{}
	for _, sp := range td.Spans {
		byName[sp.Name]++
		if sp.TraceID != traceID {
			t.Fatalf("span %s carries trace %s", sp.Name, sp.TraceID)
		}
		for _, a := range sp.Attrs {
			if a.Key == "machine" {
				perMachine[a.Value.(string)] += sp.Duration
			}
		}
	}
	for _, name := range []string{"queue", "batch", "predict", "respond"} {
		if byName[name] == 0 {
			t.Fatalf("missing %q span; got %v", name, byName)
		}
	}
	if byName["queue"] != 3 || byName["predict"] != 3 {
		t.Fatalf("want one queue+predict span per machine, got %v", byName)
	}
	// Breakdown consistency: each machine's queue→predict chain fits
	// inside the measured request total.
	for m, sum := range perMachine {
		if sum > td.Duration+time.Millisecond {
			t.Fatalf("machine %s breakdown %v exceeds request total %v", m, sum, td.Duration)
		}
	}

	// The latency histogram carries the trace ID as an exemplar — but
	// only for scrapers that negotiate OpenMetrics, where exemplars are
	// legal syntax.
	omReq, err := http.NewRequest("GET", base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	omReq.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp2, err := http.DefaultClient.Do(omReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("negotiated Content-Type %q, want OpenMetrics", ct)
	}
	sb, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sb), `# {trace_id="`+traceID+`"}`) {
		t.Fatalf("histogram exemplar for trace %s missing from OpenMetrics /metrics", traceID)
	}
	if !strings.HasSuffix(string(sb), "# EOF\n") {
		t.Fatalf("OpenMetrics scrape missing # EOF trailer")
	}

	// A classic-format scrape (no Accept negotiation — what a default
	// Prometheus text parser consumes) must stay free of exemplar
	// annotations: a mid-line '#' after the value would fail the whole
	// scrape.
	resp3, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if ct := resp3.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("classic Content-Type %q, want text/plain", ct)
	}
	classic, err := io.ReadAll(resp3.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(classic), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Contains(line, "#") {
			t.Fatalf("classic /metrics line carries a mid-line '#': %s", line)
		}
	}
}

// recordingObserver captures ObserveRequest calls — a stand-in for the
// SLO tracker.
type recordingObserver struct {
	mu       sync.Mutex
	statuses map[string][]int
}

func (o *recordingObserver) ObserveRequest(endpoint string, d time.Duration, status int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.statuses == nil {
		o.statuses = map[string][]int{}
	}
	o.statuses[endpoint] = append(o.statuses[endpoint], status)
}

func (o *recordingObserver) ObserveLabeled([]string, []float64, []float64, float64, string) {}

// TestTraceBatchObserverSeesWorstStatus locks the SLO feed contract for
// the batch endpoint: even though the HTTP envelope answers 200 whenever
// it parses, the observer must see the worst sub-result status so that
// degradation on /v1/estimate/batch burns the same error budget it would
// on /v1/estimate.
func TestTraceBatchObserverSeesWorstStatus(t *testing.T) {
	obsr := &recordingObserver{}
	_, base := newTestServer(t, Config{Observer: obsr})
	client := &http.Client{}

	// One valid snapshot plus one invalid (no samples → 400): the
	// envelope is 200, the worst sub-result is not.
	code, body := postJSON(t, client, base+"/v1/estimate/batch", BatchRequest{
		Requests: []EstimateRequest{
			{Samples: []SampleJSON{sample("m0", 1, 2)}},
			{},
		},
	})
	if code != 200 {
		t.Fatalf("batch envelope status %d: %s", code, body)
	}
	obsr.mu.Lock()
	got := append([]int(nil), obsr.statuses["estimate_batch"]...)
	obsr.mu.Unlock()
	if len(got) != 1 || got[0] != http.StatusBadRequest {
		t.Fatalf("observer saw %v for estimate_batch, want [400]", got)
	}

	// An all-OK batch still reports 200.
	code, body = postJSON(t, client, base+"/v1/estimate/batch", BatchRequest{
		Requests: []EstimateRequest{{Samples: []SampleJSON{sample("m0", 1, 2)}}},
	})
	if code != 200 {
		t.Fatalf("batch envelope status %d: %s", code, body)
	}
	obsr.mu.Lock()
	got = append([]int(nil), obsr.statuses["estimate_batch"]...)
	obsr.mu.Unlock()
	if len(got) != 2 || got[1] != http.StatusOK {
		t.Fatalf("observer saw %v for estimate_batch, want trailing 200", got)
	}
}

// TestTraceSampledRequestsAndList checks default sampling: with
// TraceSample=1 every request traces even without a traceparent, IDs are
// server-generated, and the list view serves them.
func TestTraceSampledRequestsAndList(t *testing.T) {
	ts := obs.NewTraceStore(64, time.Second)
	_, base := newTestServer(t, Config{Traces: ts, TraceSample: 1})
	client := &http.Client{}
	for i := 0; i < 5; i++ {
		code, body := postJSON(t, client, base+"/v1/estimate", EstimateRequest{
			Samples: []SampleJSON{sample("m0", 1, 1)},
		})
		if code != 200 {
			t.Fatalf("status %d: %s", code, body)
		}
		var er EstimateResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.TraceID == "" {
			t.Fatal("sampled request carries no trace_id")
		}
	}
	var list struct {
		Count  int                `json:"count"`
		Traces []obs.TraceSummary `json:"traces"`
	}
	if code := getJSON(t, base+"/debug/traces?limit=3", &list); code != 200 {
		t.Fatalf("list status %d", code)
	}
	if list.Count != 3 {
		t.Fatalf("limit ignored: %d", list.Count)
	}
	for _, s := range list.Traces {
		if s.External {
			t.Fatal("sampled trace flagged external")
		}
	}
}

// TestTraceBatchEndpointShared checks that a traced batch request records
// its snapshots under one trace and answers with the traceparent header.
func TestTraceBatchEndpointShared(t *testing.T) {
	ts := obs.NewTraceStore(64, time.Second)
	_, base := newTestServer(t, Config{Traces: ts, TraceSample: -1})
	traceID := obs.NewTraceID()
	breq := BatchRequest{Requests: []EstimateRequest{
		{Samples: []SampleJSON{sample("m0", 1, 1)}},
		{Samples: []SampleJSON{sample("m1", 2, 2)}},
	}}
	body, _ := json.Marshal(breq)
	req, _ := http.NewRequest("POST", base+"/v1/estimate/batch", bytes.NewReader(body))
	req.Header.Set("traceparent", obs.FormatTraceparent(traceID, obs.NewSpanID()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	td := ts.Get(traceID)
	if td == nil {
		t.Fatalf("batch trace %s not stored", traceID)
	}
	predicts := 0
	for _, sp := range td.Spans {
		if sp.Name == "predict" {
			predicts++
		}
	}
	if predicts != 2 {
		t.Fatalf("want 2 predict spans (one per snapshot machine), got %d", predicts)
	}
}

// TestTraceConcurrentScrapeSwapTraffic is the race-coverage satellite:
// /metrics scrapes and /debug/traces reads run concurrently with
// hot-swaps and shard traffic; nothing may race or fail.
func TestTraceConcurrentScrapeSwapTraffic(t *testing.T) {
	ts := obs.NewTraceStore(128, 50*time.Millisecond)
	s, base := newTestServer(t, Config{Traces: ts, TraceSample: 2})
	client := &http.Client{}
	var fails atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Traffic: estimation requests, half carrying traceparent.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(EstimateRequest{Samples: []SampleJSON{
					sample(fmt.Sprintf("m%d", i%4), float64(i%7), 1),
				}})
				req, _ := http.NewRequest("POST", base+"/v1/estimate", bytes.NewReader(body))
				if i%2 == 0 {
					req.Header.Set("traceparent", obs.FormatTraceparent(obs.NewTraceID(), obs.NewSpanID()))
				}
				resp, err := client.Do(req)
				if err != nil {
					fails.Add(1)
					continue
				}
				if resp.StatusCode != 200 {
					fails.Add(1)
				}
				resp.Body.Close()
			}
		}(g)
	}
	// Hot-swap loop through the API.
	wg.Add(1)
	go func() {
		defer wg.Done()
		versions := []string{"v1", "v2"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			code, _ := postJSON(t, client, base+"/v1/models/activate", ActivateRequest{Version: versions[i%2]})
			if code != 200 {
				fails.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Scrapers: /metrics and /debug/traces (list + single).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(base + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				var list struct {
					Traces []obs.TraceSummary `json:"traces"`
				}
				resp, err = client.Get(base + "/debug/traces?limit=8")
				if err == nil {
					json.NewDecoder(resp.Body).Decode(&list)
					resp.Body.Close()
				}
				for _, tr := range list.Traces {
					resp, err := client.Get(base + "/debug/traces/" + tr.TraceID)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := fails.Load(); n > 0 {
		t.Fatalf("%d failed operations under concurrent scrape+swap+traffic", n)
	}
	if ts.Len() == 0 {
		t.Fatal("no traces recorded under load")
	}
	_ = s
}

// TestTraceOverheadDisabledPath locks the zero-config behavior: without a
// store every request runs untraced, responses carry no trace IDs, and
// /debug/traces is absent from the mux.
func TestTraceOverheadDisabledPath(t *testing.T) {
	_, base := newTestServer(t, Config{})
	client := &http.Client{}
	code, body := postJSON(t, client, base+"/v1/estimate", EstimateRequest{
		Samples: []SampleJSON{sample("m0", 1, 1)},
	})
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var er EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.TraceID != "" {
		t.Fatalf("untraced server answered trace_id %q", er.TraceID)
	}
	resp, err := client.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("/debug/traces mounted without a store: %d", resp.StatusCode)
	}
}
