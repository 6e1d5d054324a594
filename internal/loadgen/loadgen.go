// Package loadgen replays simulated cluster telemetry against the
// serving API (internal/serve) and measures what comes back. With a rate
// it runs open-loop: every request is due at a point of a virtual-time
// schedule, and a slow server makes later requests late instead of
// thinning the offered load. Without one it runs closed-loop, each
// request due as soon as an in-flight slot frees, which measures
// throughput.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/mathx"
	"repro/internal/overload"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Config drives one replay.
type Config struct {
	// TargetURL is the API base, e.g. "http://127.0.0.1:8080".
	TargetURL string
	// Traces is one aligned trace per machine; snapshot t replays second
	// t mod Len of every trace.
	Traces []*trace.Trace
	// Snapshots is how many cluster seconds to replay.
	Snapshots int
	// Rate is snapshots per second; 0 replays closed-loop, as fast as the
	// API absorbs them.
	Rate float64
	// Clients is how many requests may be in flight at once.
	Clients int
	// Batch is snapshots per HTTP request: 1 uses /v1/estimate, >1 packs
	// /v1/estimate/batch.
	Batch int
	// IncludeMeter attaches metered watts so the server's drift monitor
	// sees residuals.
	IncludeMeter bool
	// Scenario, when set, scales Rate inside its Load surge windows
	// (deterministic overload storms); its other faults do not apply to
	// the replay.
	Scenario *faults.Scenario
	Seed     int64
	// PriorityWeights biases the priority class drawn per request:
	// {interactive, batch, background}. All zero sends everything
	// interactive. Draws are deterministic in Seed and the request index.
	PriorityWeights [overload.NumPriorities]int
}

// Stats is the outcome of one replay. A request's latency runs from its
// due time to its response, so time spent waiting for a free slot counts.
type Stats struct {
	Snapshots int // snapshots sent
	Samples   int // machine-samples sent
	// ByStatus counts snapshots by final HTTP status; 0 is a transport
	// error.
	ByStatus map[int]int
	// Wall runs from the start of pacing to the last response.
	Wall time.Duration
	// Window, the send window, runs from the start of pacing to the start
	// of the last send.
	Window time.Duration
	// MaxLate is the largest lateness: a send's start minus its due time.
	MaxLate   time.Duration
	SumAbsErr float64 // |estimate - metered| summed over metered OK snapshots
	MeterOK   int     // OK snapshots that carried metered power
	// Tiers breaks the run down per priority class.
	Tiers [overload.NumPriorities]TierStats
}

// TierStats is one priority class's slice of a replay.
type TierStats struct {
	Sent     int           // snapshots sent at this tier
	ByStatus map[int]int   // as Stats.ByStatus
	P50, P99 time.Duration // request latency from the due time
}

// SamplesPerSec is samples over wall time: the throughput a closed-loop
// run sustained.
func (s *Stats) SamplesPerSec() float64 { return perSec(s.Samples, s.Wall) }

// AchievedPerSec is samples over the send window: the rate an open-loop
// run actually offered, which the drain after the last send does not
// dilute.
func (s *Stats) AchievedPerSec() float64 { return perSec(s.Samples, s.Window) }

// MeanAbsErr returns the mean absolute cluster error over metered OK
// snapshots (0 when none).
func (s *Stats) MeanAbsErr() float64 {
	if s.MeterOK == 0 {
		return 0
	}
	return s.SumAbsErr / float64(s.MeterOK)
}

func perSec(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// run is one replay in progress.
type run struct {
	cfg    Config
	mix    bool // some priority weight is set
	client *http.Client
	start  time.Time

	mu    sync.Mutex
	stats Stats
	lat   [overload.NumPriorities][]time.Duration
}

// Run replays the traces against the API and reports what came back.
//
// Requests of Batch snapshots each go out in order. Snapshot i is due at
// virtual time vt(i), each interval being 1/(Rate × the Scenario's load
// multiplier at the current virtual second), and a request is due with
// its last snapshot; with Rate 0 it is due when a slot frees. A request
// then takes one of Clients slots and is posted on its own goroutine, so
// a send that runs late does not stretch the schedule.
func Run(cfg Config) (*Stats, error) {
	if cfg.TargetURL == "" {
		return nil, fmt.Errorf("loadgen: needs a target URL")
	}
	if len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("loadgen: needs traces to replay")
	}
	rows := cfg.Traces[0].Len()
	for _, t := range cfg.Traces {
		if t.Len() != rows {
			return nil, fmt.Errorf("loadgen: traces must be aligned (%d vs %d)", t.Len(), rows)
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("loadgen: traces are empty")
	}
	if cfg.Snapshots <= 0 {
		cfg.Snapshots = rows
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	var inj *faults.Injector
	if cfg.Scenario != nil {
		var err error
		if inj, err = faults.NewInjector(cfg.Scenario, cfg.Seed); err != nil {
			return nil, err
		}
	}

	transport := &http.Transport{
		MaxIdleConns:        cfg.Clients * 2,
		MaxIdleConnsPerHost: cfg.Clients * 2,
	}
	defer transport.CloseIdleConnections()
	r := &run{cfg: cfg, client: &http.Client{Transport: transport}}
	for _, w := range cfg.PriorityWeights {
		r.mix = r.mix || w > 0
	}
	r.stats.ByStatus = map[int]int{}
	for p := range r.stats.Tiers {
		r.stats.Tiers[p].ByStatus = map[int]int{}
	}

	slots := make(chan struct{}, cfg.Clients)
	var wg sync.WaitGroup
	r.start = time.Now()
	vt := 0.0 // virtual seconds since start
	for req, first := 0, 0; first < cfg.Snapshots; req, first = req+1, first+cfg.Batch {
		n := min(cfg.Batch, cfg.Snapshots-first)
		var due time.Time
		if cfg.Rate > 0 {
			for range n {
				rate := cfg.Rate
				if inj != nil {
					rate *= inj.LoadMultiplier(int(vt))
				}
				vt += 1 / rate
			}
			due = r.start.Add(time.Duration(vt * float64(time.Second)))
			time.Sleep(time.Until(due))
		}
		slots <- struct{}{}
		if cfg.Rate <= 0 {
			due = time.Now()
		}
		prio := drawPriority(cfg.PriorityWeights, cfg.Seed, req)
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			r.send(first, n, prio, due)
		}()
	}
	wg.Wait()

	s := &r.stats
	s.Wall = time.Since(r.start)
	for p := range s.Tiers {
		s.Tiers[p].P50, s.Tiers[p].P99 = quantiles(r.lat[p])
	}
	return s, nil
}

// send posts snapshots first..first+n-1 as one request of class prio
// and records the outcome, timed from due.
func (r *run) send(first, n int, prio overload.Priority, due time.Time) {
	sent := time.Now()
	reqs := make([]serve.EstimateRequest, n)
	actual := make([]float64, n)
	samples := 0
	for i := range reqs {
		reqs[i], actual[i] = r.snapshot((first + i) % r.cfg.Traces[0].Len())
		if r.mix {
			reqs[i].Priority = prio.String()
		}
		samples += len(reqs[i].Samples)
	}
	code, results, err := r.post(reqs)
	latency := time.Since(due)

	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.stats
	s.Snapshots += n
	s.Samples += samples
	s.Window = max(s.Window, sent.Sub(r.start))
	s.MaxLate = max(s.MaxLate, sent.Sub(due))
	tier := &s.Tiers[prio]
	tier.Sent += n
	r.lat[prio] = append(r.lat[prio], latency)
	for i := range n {
		status := 0 // transport error
		if err == nil {
			status = code
			if i < len(results) && results[i].Status != 0 {
				status = results[i].Status
			}
		}
		s.ByStatus[status]++
		tier.ByStatus[status]++
		if status == http.StatusOK && r.cfg.IncludeMeter && i < len(results) {
			s.MeterOK++
			d := results[i].ClusterWatts - actual[i]
			if d < 0 {
				d = -d
			}
			s.SumAbsErr += d
		}
	}
}

// snapshot assembles cluster second t into a request and returns it with
// the metered cluster watts.
func (r *run) snapshot(t int) (serve.EstimateRequest, float64) {
	var req serve.EstimateRequest
	actual := 0.0
	for _, tr := range r.cfg.Traces {
		sj := serve.SampleJSON{MachineID: tr.MachineID, Platform: tr.Platform, Counters: tr.X.Row(t)}
		if r.cfg.IncludeMeter {
			w := tr.Power[t]
			sj.MeteredWatts = &w
		}
		req.Samples = append(req.Samples, sj)
		actual += tr.Power[t]
	}
	return req, actual
}

// post sends reqs as one request, to /v1/estimate when Batch is 1 and to
// /v1/estimate/batch otherwise. It returns the HTTP status and the
// per-snapshot answers, none when the whole request failed.
func (r *run) post(reqs []serve.EstimateRequest) (int, []serve.EstimateResponse, error) {
	url, body := r.cfg.TargetURL+"/v1/estimate", any(reqs[0])
	if r.cfg.Batch > 1 {
		url, body = r.cfg.TargetURL+"/v1/estimate/batch", serve.BatchRequest{Requests: reqs}
	}
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := r.client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	// The single endpoint answers one EstimateResponse, or an error body
	// carrying its status.
	var out serve.BatchResponse
	dst := any(&out)
	if r.cfg.Batch == 1 {
		out.Results = make([]serve.EstimateResponse, 1)
		dst = &out.Results[0]
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out.Results, nil
}

// drawPriority picks a priority class from the weight vector,
// deterministically in (seed, request): the mix a run replays is a pure
// function of its config. Each request's draw is the first output of its
// own splitmix64 stream, so it allocates nothing.
func drawPriority(weights [overload.NumPriorities]int, seed int64, request int) overload.Priority {
	total := 0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return overload.Interactive
	}
	k := mathx.NewSeedKey(seed).Str("loadgen-prio:").Int(request)
	x := mathx.NewSplitMix(k.Seed()).Intn(total)
	for p, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return overload.Priority(p)
		}
		x -= w
	}
	return overload.Interactive
}

// quantiles returns the nearest-rank p50 and p99 of ds, sorting it.
func quantiles(ds []time.Duration) (p50, p99 time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	slices.Sort(ds)
	return ds[mathx.NearestRank(len(ds), 0.50)], ds[mathx.NearestRank(len(ds), 0.99)]
}
