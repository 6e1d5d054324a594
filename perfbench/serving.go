package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/counters"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// reqHeader carries a traced request's client span id to the server-side
// wrapper, so the handler span nests under the client round trip.
const reqHeader = "X-Perfbench-Span"

// serving is the in-process fixture of the stream and bulk workloads: a
// simulated cluster's telemetry replayed as request bodies, the model
// fitted on it, and the engine serving that model on a loopback listener.
type serving struct {
	srv   *serve.Server
	mux   http.Handler
	hs    *serve.HTTPServer
	url   string
	names []string
	model *models.ClusterModel
	// snaps[k] holds the k-th second of every machine's trace, in machine
	// order; bodies[k] is its /v1/estimate body and want[k] the oracle
	// cluster watts, the interpreted models.ClusterModel sum (Eq. 5).
	snaps   [][]online.Sample
	metered [][]float64
	bodies  [][]byte
	want    []float64
}

// servingSpec describes one serving fixture.
type servingSpec struct {
	platforms []string
	tech      models.Technique
	counters  []string
	// labeled attaches metered watts to every sample and turns the drift
	// monitor on with the training rMSE as its baseline.
	labeled bool
	// queueDepth, when positive, overrides the engine's per-shard queue
	// depth.
	queueDepth int
}

// newServing collects telemetry for the platforms (Prime then Sort, 10 s
// apart, as chaos-serve bootstraps), fits one machine model per platform,
// builds the oracle and the request bodies, and starts the engine.
func newServing(b *bench, ss servingSpec, handler func(http.Handler) http.Handler) (*serving, error) {
	tc, err := telemetry.NewHeterogeneous(ss.platforms, b.seed)
	if err != nil {
		return nil, err
	}
	start := b.ledNow()
	traces, err := tc.RunSequence([]string{"Prime", "Sort"}, 10, 3000, 0)
	if err != nil {
		return nil, err
	}
	if b.traced() {
		b.led.add("telemetry.collect", 0, 0, start, b.led.now())
	}
	spec := models.FeatureSpec{Name: "cluster", Counters: ss.counters}
	byPlatform := map[string][]*trace.Trace{}
	var order []string
	for _, t := range traces {
		if _, ok := byPlatform[t.Platform]; !ok {
			order = append(order, t.Platform)
		}
		byPlatform[t.Platform] = append(byPlatform[t.Platform], trace.Subsample(t, 2))
	}
	var mms []*models.MachineModel
	for _, p := range order {
		mm, err := models.FitMachineModel(ss.tech, byPlatform[p], spec,
			models.FitOptions{FreqCol: spec.FreqInputIndex(), MaxKnots: 8})
		if err != nil {
			return nil, fmt.Errorf("fitting %s: %w", p, err)
		}
		mms = append(mms, mm)
	}
	cm, err := models.NewClusterModel(mms...)
	if err != nil {
		return nil, err
	}
	want, actual, err := cm.PredictCluster(traces)
	if err != nil {
		return nil, err
	}
	reg := registry.New()
	if err := reg.Add("v1", cm, registry.Meta{Description: "perfbench " + string(ss.tech), Source: "sim"}); err != nil {
		return nil, err
	}
	cfg := serve.Config{Names: traces[0].Names, QueueDepth: ss.queueDepth}
	if ss.labeled {
		if cfg.BaselineRMSE, err = metrics.RMSE(want, actual); err != nil {
			return nil, err
		}
	}
	srv, err := serve.New(reg, cfg)
	if err != nil {
		return nil, err
	}
	sv := &serving{srv: srv, mux: serve.NewMux(srv), names: cfg.Names, model: cm, want: want}
	for k := 0; k < traces[0].Len(); k++ {
		req := serve.EstimateRequest{}
		snap := make([]online.Sample, len(traces))
		var watts []float64
		for i, t := range traces {
			row := t.X.Row(k)
			sj := serve.SampleJSON{MachineID: t.MachineID, Platform: t.Platform, Counters: row}
			if ss.labeled {
				w := t.Power[k]
				sj.MeteredWatts = &w
				watts = append(watts, w)
			}
			req.Samples = append(req.Samples, sj)
			snap[i] = online.Sample{MachineID: t.MachineID, Platform: t.Platform, Counters: row}
		}
		body, err := json.Marshal(req)
		if err != nil {
			srv.Close()
			return nil, err
		}
		sv.bodies = append(sv.bodies, body)
		sv.snaps = append(sv.snaps, snap)
		sv.metered = append(sv.metered, watts)
	}
	h := sv.mux
	if handler != nil {
		h = handler(h)
	}
	if sv.hs, err = serve.ServeHandler("127.0.0.1:0", h); err != nil {
		srv.Close()
		return nil, err
	}
	sv.url = "http://" + sv.hs.Addr()
	return sv, nil
}

func (sv *serving) close() {
	sv.hs.Close()
	sv.srv.Close()
}

// ledNow is the ledger clock, or 0 when untraced.
func (b *bench) ledNow() int64 {
	if b.led == nil {
		return 0
	}
	return b.led.now()
}

// wrap returns, for a traced run, the handler wrapper that records the
// live server's ServeHTTP as a child of the client's round-trip span.
func (b *bench) wrap() func(http.Handler) http.Handler {
	if !b.traced() {
		return nil
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
			start := b.led.now()
			next.ServeHTTP(w, r)
			b.led.add("serve.handler", parent, parent, start, b.led.now())
		})
	}
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
	}}
}

// post sends one body and returns the response body. In a traced run the
// round trip is a root span "client.request" whose id rides in reqHeader.
func (b *bench) post(c *http.Client, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var id uint64
	var start int64
	if b.traced() {
		id = b.led.newID()
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
		start = b.led.now()
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if b.traced() {
		b.led.addID(id, "client.request", 0, id, start, b.led.now())
	}
	return data, resp.StatusCode, err
}

// checkEstimate compares one snapshot's answer with the oracle. Every
// 200 must carry exactly the interpreted model's cluster watts.
func (sv *serving) checkEstimate(k int, r serve.EstimateResponse) string {
	if r.Status != http.StatusOK {
		return fmt.Sprintf("snapshot %d: status %d (%s)", k, r.Status, r.Error)
	}
	if r.ClusterWatts != sv.want[k] {
		return fmt.Sprintf("snapshot %d: cluster_watts %v, oracle %v", k, r.ClusterWatts, sv.want[k])
	}
	return ""
}

// outcome tallies one workload's requests.
type outcome struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	first     []string
}

func (o *outcome) add(problem string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if problem != "" {
		o.failed++
		if len(o.first) < 5 {
			o.first = append(o.first, problem)
		}
	}
}

func (b *bench) addOutcome(o *outcome) {
	b.attempted += o.attempted
	b.failed += o.failed
	for _, p := range o.first {
		b.note("failed: %s", p)
	}
}

// batchSizeHist is the engine's own per-batch size histogram
// (chaos_serve_batch_size); its sum over count is the mean batch size.
var batchSizeHist = obs.Default().Histogram("chaos_serve_batch_size", nil, obs.ExpBuckets(1, 2, 10))

// The stream workload: one snapshot of 12 Core2 machines per request to
// POST /v1/estimate, sent open-loop on a seeded Poisson schedule at 250
// snapshots/s (3,000 estimates/s) from two sender goroutines. The model is
// chaos-serve's default bootstrap (linear on CPU total and core-0 MHz) and
// the engine runs its default configuration (4 shards, 2 ms batch window),
// so the engine's batch-fill wait and request decode dominate latency.
// The generator is this file's own rather than serve.RunLoadGen because
// it must time each request from its scheduled send and report how late
// the sends ran.
const (
	streamRate     = 250.0 // snapshots per second
	streamMachines = 12
	// streamWindow groups the requests by scheduled second: p50_ms and
	// p90_ms are the medians over the run's seconds of each second's
	// exact order statistics (about 250 samples a second).
	streamWindow = time.Second
	// streamMaxLate is how late any send may start before the run counts
	// the generator as fallen behind: a second of backlog is 250 requests
	// the two connections could not issue, not a slow response.
	streamMaxLate = time.Second
)

func runStream(b *bench) error {
	platforms := make([]string, streamMachines)
	for i := range platforms {
		platforms[i] = "Core2"
	}
	ss := servingSpec{platforms: platforms, tech: models.TechLinear,
		counters: []string{counters.CPUTotal, counters.CPUFreqCore0}}
	sv, err := setup(b, func() (*serving, error) { return newServing(b, ss, b.wrap()) }, (*serving).close)
	if err != nil {
		return err
	}
	defer sv.close()
	client := newClient()
	defer client.CloseIdleConnections()
	url := sv.url + "/v1/estimate"

	// Warm the connections, the engine's predictors and the heap.
	rng := newRand(b.seed, "stream")
	warm := &outcome{}
	for i := 0; i < 200; i++ {
		k := rng.Intn(len(sv.bodies))
		data, _, err := b.post(client, url, sv.bodies[k])
		var r serve.EstimateResponse
		if err == nil {
			err = json.Unmarshal(data, &r)
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		warm.add(sv.checkEstimate(k, r))
	}
	if warm.failed > 0 {
		b.addOutcome(warm)
		return nil
	}
	if b.traced() {
		// The warm-up's spans would skew the live-phase layer means.
		b.led.drop("client.request", "serve.handler")
	}

	// The seeded open-loop schedule: exponential gaps at streamRate.
	var sched []time.Duration
	var picks []int
	for t := rng.ExpFloat64() / streamRate; t < b.seconds.Seconds(); t += rng.ExpFloat64() / streamRate {
		sched = append(sched, time.Duration(t*float64(time.Second)))
		picks = append(picks, rng.Intn(len(sv.bodies)))
	}
	lat := make([]float64, len(sched))
	late := make([]float64, len(sched))
	done := make([]time.Duration, len(sched))
	ok := make([]bool, len(sched))
	out := &outcome{}
	hist0 := batchSizeHist.State()
	var next sync.Mutex
	nextIdx := 0
	origin := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := nextIdx
				nextIdx++
				next.Unlock()
				if i >= len(sched) {
					return
				}
				if d := time.Until(origin.Add(sched[i])); d > 0 {
					time.Sleep(d)
				}
				late[i] = float64(time.Since(origin)-sched[i]) / 1e6
				data, status, err := b.post(client, url, sv.bodies[picks[i]])
				done[i] = time.Since(origin)
				lat[i] = float64(done[i]-sched[i]) / 1e6
				var problem string
				var r serve.EstimateResponse
				switch {
				case err != nil:
					problem = "transport: " + err.Error()
				case status != http.StatusOK:
					problem = fmt.Sprintf("HTTP %d", status)
				default:
					if err := json.Unmarshal(data, &r); err != nil {
						problem = "response: " + err.Error()
					} else {
						problem = sv.checkEstimate(picks[i], r)
					}
				}
				ok[i] = problem == ""
				out.add(problem)
			}
		}()
	}
	wg.Wait()
	b.addOutcome(out)
	hist1 := batchSizeHist.State()

	var last time.Duration
	answered := 0
	for i := range sched {
		if done[i] > last {
			last = done[i]
		}
		if ok[i] {
			answered++
		}
	}
	window := last.Seconds()
	nWin := int(b.seconds / streamWindow)
	groups := make([][]float64, nWin)
	rates := make([]float64, nWin)
	for i := range sched {
		w := int(sched[i] / streamWindow)
		groups[w] = append(groups[w], lat[i])
		if ok[i] {
			rates[w] += streamMachines / streamWindow.Seconds()
		}
	}
	b.latencies(groups)
	b.work(rates, answered)
	sortedLate := append([]float64(nil), late...)
	sort.Float64s(sortedLate)
	maxLate := sortedLate[len(sortedLate)-1]
	b.note("offered %.0f snapshots/s (%.0f estimates/s); scheduled %d in %s = %.1f snapshots/s (%.0f estimates/s)",
		streamRate, streamRate*streamMachines, len(sched), b.seconds, float64(len(sched))/b.seconds.Seconds(),
		float64(len(sched)*streamMachines)/b.seconds.Seconds())
	b.note("achieved %.1f snapshots/s (%.0f estimates/s) answered 200 and correct over %.3f s",
		float64(answered)/window, float64(answered*streamMachines)/window, window)
	b.note("generator lateness p50 %.3f ms  p99 %.3f ms  max %.3f ms (limit %s)",
		orderStat(sortedLate, 0.5), orderStat(sortedLate, 0.99), maxLate, streamMaxLate)
	if maxLate > float64(streamMaxLate)/1e6 {
		b.fail("generator fell behind: a send started %.1f ms after its schedule", maxLate)
	}
	if n := hist1.Count - hist0.Count; n > 0 {
		b.note("engine batches %d, mean batch size %.3f", n, (hist1.Sum-hist0.Sum)/float64(n))
	}
	if b.traced() {
		b.liveLayers(hist0, hist1)
		return b.serveLayers(sv, "/v1/estimate", 200, 100, func(k int) []int { return []int{k} }, rng)
	}
	return nil
}

// The bulk workload: a closed loop in which each of two connections keeps
// one POST /v1/estimate/batch of 64 snapshots outstanding. The cluster is
// two machines of each of the six Table I platforms, every sample carries
// its metered watts (drift monitor on), and each platform has its own
// quadratic model on a fixed 4-counter spec — metered backfill, where the
// batch window is amortised over 768 samples and decode dominates.
//
// One engine setting differs from the defaults, because a backfill client
// has at most two batches of 768 samples outstanding: each shard's queue
// holds all 1,536 of them, so a burst that hashes unevenly across the
// shards is queued rather than shed with a 429.
const (
	bulkSnapshots = 64
	bulkConns     = 2
	// bulkWindows groups the batches by completion time into this many
	// equal windows: each holds a fifth of the run's batches, a hundred or
	// more at --seconds 30.
	bulkWindows = 5
)

var bulkCounters = []string{
	counters.CPUTotal, `System\Context Switches/sec`, counters.CPUFreqCore0, counters.FSCopyReads,
}

func runBulk(b *bench) error {
	var platforms []string
	for _, p := range sim.PlatformNames() {
		platforms = append(platforms, p, p)
	}
	ss := servingSpec{platforms: platforms, tech: models.TechQuadratic, counters: bulkCounters, labeled: true,
		queueDepth: bulkConns * bulkSnapshots * len(platforms)}
	sv, err := setup(b, func() (*serving, error) { return newServing(b, ss, b.wrap()) }, (*serving).close)
	if err != nil {
		return err
	}
	defer sv.close()
	client := newClient()
	defer client.CloseIdleConnections()
	url := sv.url + "/v1/estimate/batch"

	// send posts one batch of seeded snapshot picks and checks every
	// sub-result; it returns the round trip and the correct estimates.
	send := func(rng *mathx.SplitMix64, o *outcome) (float64, int) {
		picks := make([]int, bulkSnapshots)
		for i := range picks {
			picks[i] = rng.Intn(len(sv.bodies))
		}
		body := sv.batchBody(picks)
		start := time.Now()
		data, status, err := b.post(client, url, body)
		ms := float64(time.Since(start)) / 1e6
		if err != nil {
			o.add("transport: " + err.Error())
			return ms, 0
		}
		if status != http.StatusOK {
			o.add(fmt.Sprintf("HTTP %d", status))
			return ms, 0
		}
		var r serve.BatchResponse
		if err := json.Unmarshal(data, &r); err != nil {
			o.add("response: " + err.Error())
			return ms, 0
		}
		problem := ""
		if len(r.Results) != len(picks) {
			problem = fmt.Sprintf("%d results for %d snapshots", len(r.Results), len(picks))
		}
		good := 0
		for i := 0; problem == "" && i < len(picks); i++ {
			if problem = sv.checkEstimate(picks[i], r.Results[i]); problem == "" {
				good++
			}
		}
		o.add(problem)
		if problem != "" {
			good = 0
		}
		return ms, good
	}

	warm := &outcome{}
	wrng := newRand(b.seed, "bulk-warm")
	for i := 0; i < 4; i++ {
		send(wrng, warm)
	}
	if warm.failed > 0 {
		b.addOutcome(warm)
		return nil
	}
	if b.traced() {
		b.led.drop("client.request", "serve.handler")
	}

	out := &outcome{}
	hist0 := batchSizeHist.State()
	var mu sync.Mutex
	winLen := b.seconds / bulkWindows
	groups := make([][]float64, bulkWindows)
	good := make([]int, bulkWindows)
	batches, answered := 0, 0
	origin := time.Now()
	var last time.Duration
	var wg sync.WaitGroup
	for g := 0; g < bulkConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := newRand(b.seed, "bulk-"+strconv.Itoa(g))
			for time.Since(origin) < b.seconds {
				ms, n := send(rng, out)
				end := time.Since(origin)
				w := int(end / winLen)
				if w >= bulkWindows {
					w = bulkWindows - 1
				}
				mu.Lock()
				groups[w] = append(groups[w], ms)
				good[w] += n
				batches++
				answered += n
				if end > last {
					last = end
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	b.addOutcome(out)
	hist1 := batchSizeHist.State()
	machines := len(platforms)
	rates := make([]float64, bulkWindows)
	for w := range rates {
		d := winLen.Seconds()
		if w == bulkWindows-1 {
			d = (last - time.Duration(w)*winLen).Seconds()
		}
		rates[w] = float64(good[w]*machines) / d
	}
	b.latencies(groups)
	b.work(rates, answered*machines)
	b.note("closed loop, 2 connections x 1 outstanding batch of %d snapshots (%d estimates)",
		bulkSnapshots, bulkSnapshots*machines)
	b.note("answered %d batches in %.3f s: %.1f batches/s, %.0f estimates/s correct",
		batches, last.Seconds(), float64(batches)/last.Seconds(), float64(answered*machines)/last.Seconds())
	if n := hist1.Count - hist0.Count; n > 0 {
		b.note("engine batches %d, mean batch size %.3f", n, (hist1.Sum-hist0.Sum)/float64(n))
	}
	if b.traced() {
		b.liveLayers(hist0, hist1)
		rng := newRand(b.seed, "bulk-layers")
		// 64 requests: a batch's decode time swings by a third from one
		// request to the next with the host's speed, and the coverage
		// check sums parts and wholes timed apart.
		return b.serveLayers(sv, "/v1/estimate/batch", 64, 4, func(int) []int {
			picks := make([]int, bulkSnapshots)
			for i := range picks {
				picks[i] = rng.Intn(len(sv.bodies))
			}
			return picks
		}, rng)
	}
	return nil
}

// batchBody assembles a /v1/estimate/batch body from the pre-encoded
// snapshot bodies, which are each a serve.EstimateRequest.
func (sv *serving) batchBody(picks []int) []byte {
	n := 16
	for _, k := range picks {
		n += len(sv.bodies[k]) + 1
	}
	buf := make([]byte, 0, n)
	buf = append(buf, `{"requests":[`...)
	for i, k := range picks {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, sv.bodies[k]...)
	}
	return append(buf, "]}"...)
}

// liveLayers derives the layer metrics of the live (socket) phase: the
// transport share of each client round trip and the engine's mean batch.
func (b *bench) liveLayers(h0, h1 obs.HistState) {
	st := b.led.stats()
	if c := st["client.request"]; c != nil && c.n > 0 {
		b.set("serve.transport_ms", float64(c.self)/float64(c.n)/1e6, c.n)
	}
	if n := h1.Count - h0.Count; n > 0 {
		b.set("serve.batch_size", (h1.Sum-h0.Sum)/float64(n), int(n))
	}
}

// serveLayers times the server's layers with no socket and nothing else
// running: NewMux(srv).ServeHTTP on an in-memory request (span
// serve.http) and, on the same body, its four parts timed apart
// (serveParts). Allocations are counted around ServeHTTP calls alone. It
// then times online.Predictor.PredictBatch and Model.Predict on the same
// rows.
func (b *bench) serveLayers(sv *serving, path string, reqs, allocReqs int, pick func(int) []int, rng *mathx.SplitMix64) error {
	bodyFor := func(picks []int) []byte {
		if path != "/v1/estimate" {
			return sv.batchBody(picks)
		}
		return sv.bodies[picks[0]]
	}
	l := b.led
	for r := 0; r < reqs; r++ {
		picks := pick(rng.Intn(len(sv.bodies)))
		body := bodyFor(picks)
		id := l.newID()
		// Every other request times its parts before the whole, so that
		// neither side alone pays for the garbage the other left behind.
		partsFirst := r%2 == 1
		if partsFirst {
			if err := b.serveParts(sv, path, id, body, picks); err != nil {
				return err
			}
		}
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		start := l.now()
		sv.mux.ServeHTTP(rec, hreq)
		l.addID(id, "serve.http", 0, id, start, l.now())
		if rec.Code != http.StatusOK {
			b.fail("no-socket %s: HTTP %d", path, rec.Code)
			continue
		}
		if !partsFirst {
			if err := b.serveParts(sv, path, id, body, picks); err != nil {
				return err
			}
		}
	}
	for _, name := range []string{"serve.http", "serve.read", "serve.decode", "serve.engine", "serve.encode"} {
		ms, n := l.meanMS(name)
		b.set(name+"_ms", ms, n)
	}

	// Allocations inside ServeHTTP alone: requests and recorders are
	// built before the count starts.
	hreqs := make([]*http.Request, allocReqs)
	recs := make([]*httptest.ResponseRecorder, allocReqs)
	for i := range hreqs {
		hreqs[i] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(bodyFor(pick(rng.Intn(len(sv.bodies))))))
		recs[i] = httptest.NewRecorder()
	}
	m0 := mallocs()
	for i := range hreqs {
		sv.mux.ServeHTTP(recs[i], hreqs[i])
	}
	b.set("serve.allocs_per_request", float64(mallocs()-m0)/float64(allocReqs), allocReqs)

	return b.modelLayers(sv, rng)
}

// serveParts times, as children of the serve.http span id, the four parts
// of ServeHTTP on one body: reading it as decodeJSON does (serve.read),
// json.Unmarshal into the request type (serve.decode), Server.Estimate for
// every snapshot, scattered as the batch handler does (serve.engine), and
// encoding the response type (serve.encode).
func (b *bench) serveParts(sv *serving, path string, id uint64, body []byte, picks []int) error {
	l := b.led
	batch := path != "/v1/estimate"

	rreq := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	start := l.now()
	_, err := io.ReadAll(http.MaxBytesReader(httptest.NewRecorder(), rreq.Body, 64<<20))
	l.add("serve.read", id, id, start, l.now())
	if err != nil {
		return err
	}

	start = l.now()
	var one serve.EstimateRequest
	var many serve.BatchRequest
	if batch {
		err = json.Unmarshal(body, &many)
	} else {
		err = json.Unmarshal(body, &one)
		many.Requests = []serve.EstimateRequest{one}
	}
	l.add("serve.decode", id, id, start, l.now())
	if err != nil {
		return err
	}

	results := make([]serve.EstimateResponse, len(picks))
	start = l.now()
	var wg sync.WaitGroup
	for i, k := range picks {
		wg.Add(1)
		go func(i, k int) {
			defer wg.Done()
			res, err := sv.srv.Estimate(sv.snaps[k], 0, sv.metered[k])
			if err != nil {
				results[i] = serve.EstimateResponse{Status: http.StatusServiceUnavailable, Error: err.Error()}
				return
			}
			results[i] = serve.EstimateResponse{Status: http.StatusOK, ModelVersion: res.Version(),
				ClusterWatts: res.ClusterWatts, PerMachine: res.PerMachine}
		}(i, k)
	}
	wg.Wait()
	l.add("serve.engine", id, id, start, l.now())
	for i, k := range picks {
		if p := sv.checkEstimate(k, results[i]); p != "" {
			b.fail("engine: %s", p)
		}
	}

	start = l.now()
	if batch {
		err = json.NewEncoder(io.Discard).Encode(serve.BatchResponse{Results: results})
	} else {
		err = json.NewEncoder(io.Discard).Encode(results[0])
	}
	l.add("serve.encode", id, id, start, l.now())
	return err
}

// modelLayers times online.Predictor.PredictBatch per sample, in batches
// of the engine's measured mean batch size, and Model.Predict per row.
func (b *bench) modelLayers(sv *serving, rng *mathx.SplitMix64) error {
	pred, err := online.NewPredictor(sv.model, sv.names)
	if err != nil {
		return err
	}
	size := int(math.Round(b.values["serve.batch_size"]))
	if size < 1 {
		size = 1
	}
	const predictSamples = 20000
	batches := make([][]online.Sample, 0, predictSamples/size+1)
	for n := 0; n < predictSamples; n += size {
		bt := make([]online.Sample, size)
		for i := range bt {
			snap := sv.snaps[rng.Intn(len(sv.snaps))]
			bt[i] = snap[rng.Intn(len(snap))]
		}
		batches = append(batches, bt)
	}
	l := b.led
	m0 := mallocs()
	start := l.now()
	for _, bt := range batches {
		pred.PredictBatch(bt)
	}
	end := l.now()
	allocs := mallocs() - m0
	l.add("online.predict_batch", 0, 0, start, end)
	n := len(batches) * size
	b.set("online.predict_us", float64(end-start)/float64(n)/1e3, n)
	b.set("online.allocs_per_sample", float64(allocs)/float64(n), n)

	// Model.Predict on rows built from each sample's platform spec.
	type input struct {
		m   models.Model
		row []float64
	}
	byName := map[string]int{}
	for i, nm := range sv.names {
		byName[nm] = i
	}
	inputs := make([]input, 0, 4096)
	for len(inputs) < cap(inputs) {
		snap := sv.snaps[rng.Intn(len(sv.snaps))]
		s := snap[rng.Intn(len(snap))]
		mm := sv.model.ByPlatform[s.Platform]
		row := make([]float64, len(mm.Spec.Counters))
		for j, c := range mm.Spec.Counters {
			row[j] = s.Counters[byName[c]]
		}
		inputs = append(inputs, input{mm.Model, row})
	}
	const rounds = 100
	var sink float64
	start = l.now()
	for r := 0; r < rounds; r++ {
		for _, in := range inputs {
			sink += in.m.Predict(in.row)
		}
	}
	end = l.now()
	l.add("models.predict", 0, 0, start, end)
	rows := rounds * len(inputs)
	if math.IsNaN(sink) {
		b.fail("Model.Predict returned NaN")
	}
	b.set("models.predict_ns", float64(end-start)/float64(rows), rows)
	return nil
}
