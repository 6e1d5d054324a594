package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/models"
	"repro/internal/online"
	"repro/internal/registry"
)

// testNames is the counter-stream order every test fixture uses.
var testNames = []string{"a", "b"}

// mkLinear builds a one-platform cluster model: watts = intercept + a + 2b.
func mkLinear(t *testing.T, intercept float64) *models.ClusterModel {
	t.Helper()
	mm := &models.MachineModel{
		Platform: "p",
		Spec:     models.FeatureSpec{Name: "test", Counters: testNames},
		Model:    &models.Linear{Intercept: intercept, Coef: []float64{1, 2}},
	}
	cm, err := models.NewClusterModel(mm)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// newTestServer builds a registry with v1 (intercept 10) and v2
// (intercept 20), an engine, and a bound HTTP listener.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	reg := registry.New()
	if err := reg.Add("v1", mkLinear(t, 10), registry.Meta{Description: "ten"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("v2", mkLinear(t, 20), registry.Meta{Description: "twenty"}); err != nil {
		t.Fatal(err)
	}
	if cfg.Names == nil {
		cfg.Names = testNames
	}
	s, err := New(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		h.Close()
		s.Close()
	})
	return s, "http://" + h.Addr()
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func sample(machine string, a, b float64) SampleJSON {
	return SampleJSON{MachineID: machine, Platform: "p", Counters: []float64{a, b}}
}

func TestServeEstimateSingleEndpoint(t *testing.T) {
	_, base := newTestServer(t, Config{})
	// "m1" hashes to 2,486,071,275, negative as a 32-bit int, so this
	// request also checks that routing stays in range where int is 32 bits.
	h := fnv.New32a()
	h.Write([]byte("m1"))
	if h.Sum32() < 1<<31 {
		t.Fatalf("fnv32a(m1) = %d no longer exercises the high-hash route", h.Sum32())
	}
	client := &http.Client{}
	status, body := postJSON(t, client, base+"/v1/estimate", EstimateRequest{
		Samples: []SampleJSON{sample("m1", 3, 4), sample("m2", 1, 1)},
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp EstimateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	// v1: m1 = 10+3+8 = 21, m2 = 10+1+2 = 13.
	if resp.ModelVersion != "v1" {
		t.Errorf("model_version = %q, want v1", resp.ModelVersion)
	}
	if resp.ClusterWatts != 34 {
		t.Errorf("cluster_watts = %g, want 34", resp.ClusterWatts)
	}
	if resp.PerMachine["m1"] != 21 || resp.PerMachine["m2"] != 13 {
		t.Errorf("per_machine = %v", resp.PerMachine)
	}
}

func TestServeEstimateBatchEndpoint(t *testing.T) {
	_, base := newTestServer(t, Config{})
	client := &http.Client{}
	req := BatchRequest{Requests: []EstimateRequest{
		{Samples: []SampleJSON{sample("m1", 3, 4)}},
		{Samples: []SampleJSON{sample("m2", 0, 0)}},
		{Samples: []SampleJSON{sample("m1", 1, 0)}},
	}}
	status, body := postJSON(t, client, base+"/v1/estimate/batch", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(resp.Results))
	}
	want := []float64{21, 10, 11}
	for i, r := range resp.Results {
		if r.Status != http.StatusOK || r.ClusterWatts != want[i] {
			t.Errorf("result %d = status %d watts %g, want 200/%g", i, r.Status, r.ClusterWatts, want[i])
		}
	}
}

func TestServeEstimateBadRequests(t *testing.T) {
	s, base := newTestServer(t, Config{})
	client := &http.Client{}
	cases := []struct {
		name string
		req  EstimateRequest
	}{
		{"no samples", EstimateRequest{}},
		{"unknown platform", EstimateRequest{Samples: []SampleJSON{{MachineID: "m", Platform: "nope", Counters: []float64{1, 2}}}}},
		{"wrong width", EstimateRequest{Samples: []SampleJSON{{MachineID: "m", Platform: "p", Counters: []float64{1}}}}},
	}
	for _, c := range cases {
		status, body := postJSON(t, client, base+"/v1/estimate", c.req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", c.name, status, body)
		}
	}
	// Non-finite counters cannot travel as JSON (the encoder rejects NaN),
	// but the engine must still reject them for direct callers.
	if _, err := s.Estimate([]online.Sample{{MachineID: "m", Platform: "p", Counters: []float64{math.NaN(), 1}}}, 0, nil); err == nil {
		t.Error("non-finite counters should be rejected by the engine")
	}
	// Garbage body.
	resp, err := client.Post(base+"/v1/estimate", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status = %d, want 400", resp.StatusCode)
	}
}

func TestServeModelsListActivateRollback(t *testing.T) {
	_, base := newTestServer(t, Config{})
	client := &http.Client{}

	resp, err := client.Get(base + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Active != "v1" || len(list.Models) != 2 {
		t.Fatalf("models = active %q, %d versions; want v1, 2", list.Active, len(list.Models))
	}

	status, _ := postJSON(t, client, base+"/v1/models/activate", ActivateRequest{Version: "v2"})
	if status != http.StatusOK {
		t.Fatalf("activate v2: status %d", status)
	}
	status, body := postJSON(t, client, base+"/v1/models/activate", ActivateRequest{Version: "ghost"})
	if status != http.StatusBadRequest {
		t.Fatalf("activate ghost: status %d body %s", status, body)
	}
	// Estimates now use v2.
	status, body = postJSON(t, client, base+"/v1/estimate", EstimateRequest{Samples: []SampleJSON{sample("m1", 3, 4)}})
	if status != http.StatusOK {
		t.Fatalf("estimate: %d %s", status, body)
	}
	var er EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.ModelVersion != "v2" || er.ClusterWatts != 31 {
		t.Errorf("after swap: version %q watts %g, want v2/31", er.ModelVersion, er.ClusterWatts)
	}
	// Rollback returns to v1.
	status, body = postJSON(t, client, base+"/v1/models/activate", ActivateRequest{Rollback: true})
	if status != http.StatusOK {
		t.Fatalf("rollback: %d %s", status, body)
	}
	status, body = postJSON(t, client, base+"/v1/estimate", EstimateRequest{Samples: []SampleJSON{sample("m1", 3, 4)}})
	if status != http.StatusOK {
		t.Fatal("estimate after rollback failed")
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.ModelVersion != "v1" || er.ClusterWatts != 21 {
		t.Errorf("after rollback: version %q watts %g, want v1/21", er.ModelVersion, er.ClusterWatts)
	}
}

// TestServeDriftJudgesOnlyTheActiveVersion promotes v2 over v1 and
// resets the drift alarm, as lifecycle does after a verdict. A snapshot v1
// served, observed only now and 50 W off, must not re-trip the alarm, and
// neither must one a hot-swap split between v1 and v2; one v2 served as
// far off must.
func TestServeDriftJudgesOnlyTheActiveVersion(t *testing.T) {
	s, _ := newTestServer(t, Config{BaselineRMSE: 1})
	if err := s.Registry().Activate("v2"); err != nil {
		t.Fatal(err)
	}
	s.ResetDrift(0)
	samples := []online.Sample{{MachineID: "m1", Platform: "p", Counters: []float64{1, 1}}}
	for _, versions := range [][]string{{"v1"}, {"v1", "v2"}} {
		s.observe(&Result{ClusterWatts: 13, Versions: versions}, samples, []float64{63})
		if s.Drifted() {
			t.Fatalf("a residual of a snapshot served by %v tripped the drift alarm of v2", versions)
		}
	}
	s.observe(&Result{ClusterWatts: 23, Versions: []string{"v2"}}, samples, []float64{73})
	if !s.Drifted() {
		t.Fatal("a v2 residual 50 W off did not trip the drift alarm")
	}
}

// TestServeLagHistorySurvivesRollback: a shard's lag history belongs to
// the machine's stream, not to a model version. With lagged linear models
// (v1: watts = freq(t−1); v2: 100 + freq(t−1)), v1 serves seconds 1–10
// and v2 seconds 11–20, then a rollback hands second 21 back to v1: every
// answer must read the previous second's frequency, across both swaps.
func TestServeLagHistorySurvivesRollback(t *testing.T) {
	names := []string{counters.CPUFreqCore0}
	lagged := func(intercept float64) *models.ClusterModel {
		cm, err := models.NewClusterModel(&models.MachineModel{
			Platform: "p",
			Spec:     models.FeatureSpec{Name: "lag", Counters: names, LagFreq: true},
			Model:    &models.Linear{Intercept: intercept, Coef: []float64{0, 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return cm
	}
	reg := registry.New()
	if err := reg.Add("v1", lagged(0), registry.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("v2", lagged(100), registry.Meta{}); err != nil {
		t.Fatal(err)
	}
	s, err := New(reg, Config{Names: names})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	at := func(freq float64) float64 {
		t.Helper()
		res, err := s.Estimate([]online.Sample{{MachineID: "m1", Platform: "p", Counters: []float64{freq}}}, time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.ClusterWatts
	}
	for f := 1.0; f <= 10; f++ {
		at(f)
	}
	if err := reg.Activate("v2"); err != nil {
		t.Fatal(err)
	}
	if got := at(11); got != 110 {
		t.Errorf("second 11 on v2 answered %g W, want 110 (100 + freq 10)", got)
	}
	for f := 12.0; f <= 20; f++ {
		at(f)
	}
	if _, err := reg.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := at(21); got != 20 {
		t.Errorf("second 21 after rollback to v1 answered %g W, want 20 (freq 20)", got)
	}
}

func TestServeAddModelOverHTTP(t *testing.T) {
	_, base := newTestServer(t, Config{})
	client := &http.Client{}
	cm := mkLinear(t, 40)
	raw, err := json.Marshal(cm)
	if err != nil {
		t.Fatal(err)
	}
	status, body := postJSON(t, client, base+"/v1/models", AddModelRequest{
		Version: "v3", Description: "forty", Model: raw, Activate: true,
	})
	if status != http.StatusOK {
		t.Fatalf("add model: %d %s", status, body)
	}
	status, body = postJSON(t, client, base+"/v1/estimate", EstimateRequest{Samples: []SampleJSON{sample("m1", 0, 0)}})
	if status != http.StatusOK {
		t.Fatalf("estimate: %d %s", status, body)
	}
	var er EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.ModelVersion != "v3" || er.ClusterWatts != 40 {
		t.Errorf("got version %q watts %g, want v3/40", er.ModelVersion, er.ClusterWatts)
	}
	// A model whose features the stream cannot supply is rejected at
	// admission, before it could ever be activated.
	alien := &models.MachineModel{
		Platform: "p",
		Spec:     models.FeatureSpec{Name: "alien", Counters: []string{"zz", "ww"}},
		Model:    &models.Linear{Intercept: 1, Coef: []float64{1, 2}},
	}
	acm, err := models.NewClusterModel(alien)
	if err != nil {
		t.Fatal(err)
	}
	rawAlien, _ := json.Marshal(acm)
	status, body = postJSON(t, client, base+"/v1/models", AddModelRequest{Version: "v4", Model: rawAlien})
	if status != http.StatusBadRequest {
		t.Errorf("incompatible model admission: status %d body %s, want 400", status, body)
	}
	// Truncated model payload.
	// Syntactically valid JSON that is not a cluster model.
	status, _ = postJSON(t, client, base+"/v1/models", AddModelRequest{Version: "v5", Model: json.RawMessage(`"not a model"`)})
	if status != http.StatusBadRequest {
		t.Errorf("malformed model: status %d, want 400", status)
	}
}

// gateModel blocks Predict while gated, so tests can hold a worker busy
// deterministically. entered signals each arrival into Predict.
type gateModel struct {
	gate    atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateModel) Predict(row []float64) float64 {
	if g.gate.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	return 1
}
func (g *gateModel) Technique() models.Technique { return models.TechLinear }
func (g *gateModel) NumInputs() int              { return 2 }

// newGateServer builds a server whose active model can be frozen.
func newGateServer(t *testing.T, cfg Config) (*gateModel, string) {
	t.Helper()
	g := &gateModel{entered: make(chan struct{}, 64), release: make(chan struct{})}
	mm := &models.MachineModel{
		Platform: "p",
		Spec:     models.FeatureSpec{Name: "gate", Counters: testNames},
		Model:    g,
	}
	cm, err := models.NewClusterModel(mm)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	if err := reg.Add("v1", cm, registry.Meta{}); err != nil {
		t.Fatal(err)
	}
	cfg.Names = testNames
	s, err := New(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		h.Close()
		s.Close()
	})
	return g, "http://" + h.Addr()
}

// TestServeBackpressure429 fills the single shard's depth-2 queue while
// the worker is pinned inside a prediction, then checks that further
// requests shed with 429 instead of queueing unboundedly — and that every
// queued request still completes once the worker resumes.
func TestServeBackpressure429(t *testing.T) {
	g, base := newGateServer(t, Config{Shards: 1, QueueDepth: 2, BatchMax: 1, Deadline: 30 * time.Second})
	client := &http.Client{}
	g.gate.Store(true)

	results := make(chan int, 3)
	post := func() {
		status, _ := postJSON(t, client, base+"/v1/estimate", EstimateRequest{Samples: []SampleJSON{sample("m1", 1, 1)}})
		results <- status
	}
	go post()
	<-g.entered // worker now pinned inside Predict
	go post()
	go post() // these two occupy the depth-2 queue
	waitQueued(t, base, 2)

	// Queue full: the next requests must shed immediately with 429, each
	// carrying a Retry-After hint derived from the queue backlog so the
	// client backs off instead of hammering.
	for i := 0; i < 3; i++ {
		data, err := json.Marshal(EstimateRequest{Samples: []SampleJSON{sample("m1", 1, 1)}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(base+"/v1/estimate", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overload request %d: status %d, want 429", i, resp.StatusCode)
		}
		ra := resp.Header.Get("Retry-After")
		if ra == "" {
			t.Fatalf("overload request %d: 429 without Retry-After header", i)
		}
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Fatalf("overload request %d: Retry-After %q, want integer seconds >= 1", i, ra)
		}
	}

	g.gate.Store(false)
	close(g.release)
	for i := 0; i < 3; i++ {
		if status := <-results; status != http.StatusOK {
			t.Errorf("pinned request %d finished with %d, want 200", i, status)
		}
	}
}

// waitQueued polls the metrics endpoint until the shard queue shows n
// entries (the two in-flight posts are enqueued asynchronously).
func waitQueued(t *testing.T, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		resp.Body.Close()
		if bytes.Contains(buf.Bytes(), []byte(fmt.Sprintf(`chaos_serve_queue_depth{shard="0"} %d`, n))) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("queue never reached depth %d", n)
}

// TestServeDeadlineExceeded pins the worker past a short per-request
// deadline and checks the queued request is answered 504, not silently
// dropped.
func TestServeDeadlineExceeded(t *testing.T) {
	g, base := newGateServer(t, Config{Shards: 1, QueueDepth: 8, BatchMax: 1, Deadline: 30 * time.Second})
	client := &http.Client{}
	g.gate.Store(true)

	first := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, client, base+"/v1/estimate", EstimateRequest{Samples: []SampleJSON{sample("m1", 1, 1)}})
		first <- status
	}()
	<-g.entered // worker pinned

	late := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, client, base+"/v1/estimate", EstimateRequest{
			Samples:    []SampleJSON{sample("m1", 1, 1)},
			DeadlineMS: 20,
		})
		late <- status
	}()
	time.Sleep(60 * time.Millisecond) // let the 20ms deadline lapse in queue
	g.gate.Store(false)
	close(g.release)

	if status := <-first; status != http.StatusOK {
		t.Errorf("pinned request: %d, want 200", status)
	}
	if status := <-late; status != http.StatusGatewayTimeout {
		t.Errorf("expired request: %d, want 504", status)
	}
}

// TestServeHotSwapUnderLoad is the satellite race test: hammer
// /v1/estimate from many goroutines while another goroutine flips the
// active version between v1 and v2 through the API. Every request must
// succeed, and every answer must be exactly a v1 or v2 prediction —
// never a torn mix.
func TestServeHotSwapUnderLoad(t *testing.T) {
	_, base := newTestServer(t, Config{Shards: 4, QueueDepth: 1024, Deadline: 30 * time.Second})
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}}

	const hammers = 8
	const perHammer = 150
	var failed atomic.Int64
	var torn atomic.Int64
	var wg sync.WaitGroup

	stopSwap := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		v := 0
		for {
			select {
			case <-stopSwap:
				return
			default:
			}
			v++
			version := []string{"v1", "v2"}[v%2]
			status, _ := postJSON(t, client, base+"/v1/models/activate", ActivateRequest{Version: version})
			if status != http.StatusOK {
				failed.Add(1)
			}
		}
	}()

	// Expected watts for row [3,4]: v1 -> 21, v2 -> 31.
	want := map[string]float64{"v1": 21, "v2": 31}
	var hwg sync.WaitGroup
	for h := 0; h < hammers; h++ {
		hwg.Add(1)
		go func(h int) {
			defer hwg.Done()
			machine := fmt.Sprintf("m%d", h)
			for i := 0; i < perHammer; i++ {
				status, body := postJSON(t, client, base+"/v1/estimate", EstimateRequest{
					Samples: []SampleJSON{sample(machine, 3, 4)},
				})
				if status != http.StatusOK {
					failed.Add(1)
					continue
				}
				var er EstimateResponse
				if err := json.Unmarshal(body, &er); err != nil {
					failed.Add(1)
					continue
				}
				if w, ok := want[er.ModelVersion]; !ok || er.ClusterWatts != w {
					torn.Add(1)
				}
			}
		}(h)
	}
	hwg.Wait()
	close(stopSwap)
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Errorf("%d requests failed during hot-swap; want 0", n)
	}
	if n := torn.Load(); n != 0 {
		t.Errorf("%d torn reads (watts not matching the reported version); want 0", n)
	}
}

// TestServeCloseAnswersQueued checks a closing server still answers
// queued work instead of dropping it.
func TestServeCloseAnswersQueued(t *testing.T) {
	reg := registry.New()
	if err := reg.Add("v1", mkLinear(t, 10), registry.Meta{}); err != nil {
		t.Fatal(err)
	}
	s, err := New(reg, Config{Shards: 1, Names: testNames, Deadline: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Estimate([]online.Sample{{MachineID: fmt.Sprintf("m%d", i), Platform: "p", Counters: []float64{1, 1}}}, 0, nil)
			if err != nil {
				errs <- err
				return
			}
			if res.ClusterWatts != 13 {
				errs <- fmt.Errorf("watts = %g", res.ClusterWatts)
			}
		}(i)
	}
	wg.Wait()
	s.Close()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// After close, estimates fail fast rather than deadlocking.
	if _, err := s.Estimate([]online.Sample{{MachineID: "m", Platform: "p", Counters: []float64{1, 1}}}, 0, nil); err == nil {
		t.Error("estimate after Close should fail")
	}
}

// TestDistServeOwnershipRejection: a node with a partition check rejects
// estimates for machines it does not own with 421 and a redirect hint —
// serving them locally would use predictors whose lag history lives on
// the owning peer.
func TestDistServeOwnershipRejection(t *testing.T) {
	_, base := newTestServer(t, Config{
		Owner: func(machineID string) (string, string, bool) {
			if machineID == "m-local" {
				return "n1", "127.0.0.1:1", true
			}
			return "n2", "10.0.0.2:8080", false
		},
	})
	client := &http.Client{}

	status, body := postJSON(t, client, base+"/v1/estimate", EstimateRequest{
		Samples: []SampleJSON{sample("m-local", 1, 1)},
	})
	if status != http.StatusOK {
		t.Fatalf("owned machine: status %d body %s", status, body)
	}

	data, err := json.Marshal(EstimateRequest{
		Samples: []SampleJSON{sample("m-local", 1, 1), sample("m-remote", 2, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/v1/estimate", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("non-owned machine: status %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Chaos-Owner"); got != "n2" {
		t.Errorf("X-Chaos-Owner = %q, want n2", got)
	}
	if got := resp.Header.Get("X-Chaos-Owner-Addr"); got != "10.0.0.2:8080" {
		t.Errorf("X-Chaos-Owner-Addr = %q, want 10.0.0.2:8080", got)
	}
	var er EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Owner != "n2" || er.OwnerAddr != "10.0.0.2:8080" {
		t.Fatalf("redirect hint = %+v, want owner n2 at 10.0.0.2:8080", er)
	}
}
