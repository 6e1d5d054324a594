package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/mathx"
	"repro/internal/overload"
	"repro/internal/trace"
)

// LoadGenConfig drives a replay of simulated cluster telemetry against
// the serving API, so throughput and tail latency are measurable in-repo.
type LoadGenConfig struct {
	// TargetURL is the API base, e.g. "http://127.0.0.1:8080".
	TargetURL string
	// Traces is one aligned trace per machine; snapshot t replays second
	// t mod Len of every trace.
	Traces []*trace.Trace
	// Snapshots is how many cluster seconds to replay.
	Snapshots int
	// Rate is snapshots per second; 0 replays as fast as the API absorbs
	// them (the throughput-measurement mode).
	Rate float64
	// Clients is the number of concurrent HTTP senders.
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
	// PriorityWeights biases the priority class drawn per request group:
	// {interactive, batch, background}. All zero sends everything
	// interactive. Draws are deterministic in Seed and the group index.
	PriorityWeights [overload.NumPriorities]int
}

// LoadStats is the outcome of one load-generation run.
type LoadStats struct {
	Snapshots     int // snapshots attempted
	Samples       int // machine-samples sent
	OK            int // snapshots answered 200
	Shed          int // snapshots answered 429
	Late          int // snapshots answered 504
	Failed        int // transport errors or unexpected statuses
	Duration      time.Duration
	SamplesPerSec float64
	LatencyP50    time.Duration // per HTTP request, client-measured
	LatencyP99    time.Duration
	SumAbsErr     float64 // |estimate - metered| summed over OK snapshots with meter
	MeterOK       int     // OK snapshots that carried metered power
	// ByStatus splits every snapshot outcome by its final HTTP status
	// (200/429/503/504/...), so "Failed" is never a lumped mystery; the
	// legacy OK/Shed/Late/Failed counters are kept as rollups.
	ByStatus map[int]int
	// TransportErrors counts snapshots lost before any status arrived
	// (connection resets, timeouts). Also included in Failed.
	TransportErrors int
	// Tiers breaks the run down per priority class.
	Tiers [overload.NumPriorities]TierStats

	mu        sync.Mutex
	latencies []time.Duration
}

// TierStats is the per-priority-class slice of a load-generation run.
type TierStats struct {
	Sent   int // snapshots attempted at this tier
	OK     int
	Shed   int // 429
	Late   int // 504
	Failed int // transport errors or other statuses
	P50    time.Duration
	P99    time.Duration

	latencies []time.Duration
}

// account records one final status for n snapshots of tier p, updating
// the rollups, the per-status split, and the per-tier split together.
// Caller holds s.mu. Status 0 means a transport error.
func (s *LoadStats) account(p overload.Priority, status, n int) {
	if s.ByStatus == nil {
		s.ByStatus = make(map[int]int)
	}
	s.ByStatus[status] += n
	t := &s.Tiers[p]
	switch status {
	case http.StatusOK:
		s.OK += n
		t.OK += n
	case http.StatusTooManyRequests:
		s.Shed += n
		t.Shed += n
	case http.StatusGatewayTimeout:
		s.Late += n
		t.Late += n
	case 0:
		s.TransportErrors += n
		s.Failed += n
		t.Failed += n
	default:
		s.Failed += n
		t.Failed += n
	}
}

// MeanAbsErr returns the mean absolute cluster error over metered OK
// snapshots (0 when none).
func (s *LoadStats) MeanAbsErr() float64 {
	if s.MeterOK == 0 {
		return 0
	}
	return s.SumAbsErr / float64(s.MeterOK)
}

// snapshotPayload is one prepared cluster second.
type snapshotPayload struct {
	req      EstimateRequest
	actual   float64
	hasMeter bool
}

// RunLoadGen replays the traces against the API and reports stats.
func RunLoadGen(cfg LoadGenConfig) (*LoadStats, error) {
	if cfg.TargetURL == "" {
		return nil, fmt.Errorf("serve: loadgen needs a target URL")
	}
	if len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("serve: loadgen needs traces to replay")
	}
	n := cfg.Traces[0].Len()
	for _, t := range cfg.Traces {
		if t.Len() != n {
			return nil, fmt.Errorf("serve: loadgen traces must be aligned (%d vs %d)", t.Len(), n)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("serve: loadgen traces are empty")
	}
	if cfg.Snapshots <= 0 {
		cfg.Snapshots = n
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

	stats := &LoadStats{}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Clients * 2,
		MaxIdleConnsPerHost: cfg.Clients * 2,
	}}

	// Producer: builds snapshots in order, throttled to Rate, grouped
	// Batch per send. Pacing runs on virtual time so Scenario.Load surge
	// windows scale the instantaneous rate as a pure function of config:
	// snapshot i is due at vt(i), where each interval is 1/(Rate ×
	// multiplier at the current virtual second). A sender that falls
	// behind wall clock does not stretch the schedule.
	work := make(chan []snapshotPayload, cfg.Clients*2)
	go func() {
		defer close(work)
		paceStart := time.Now()
		vt := 0.0 // virtual seconds since start
		mixPriorities := false
		for _, w := range cfg.PriorityWeights {
			if w > 0 {
				mixPriorities = true
			}
		}
		group := make([]snapshotPayload, 0, cfg.Batch)
		groupIdx := 0
		for i := 0; i < cfg.Snapshots; i++ {
			if cfg.Rate > 0 {
				rate := cfg.Rate
				if inj != nil {
					rate *= inj.LoadMultiplier(int(vt))
				}
				vt += 1 / rate
				time.Sleep(time.Until(paceStart.Add(time.Duration(vt * float64(time.Second)))))
			}
			snap := buildSnapshot(cfg, i%n)
			// One deterministic priority draw per group; every snapshot in
			// the group shares it so batch requests stay single-class.
			if mixPriorities {
				if len(group) == 0 {
					snap.req.Priority = drawPriority(cfg.PriorityWeights, cfg.Seed, groupIdx).String()
					groupIdx++
				} else {
					snap.req.Priority = group[0].req.Priority
				}
			}
			group = append(group, snap)
			if len(group) == cfg.Batch {
				work <- group
				group = make([]snapshotPayload, 0, cfg.Batch)
			}
		}
		if len(group) > 0 {
			work <- group
		}
	}()

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for group := range work {
				sendGroup(client, cfg, group, stats)
			}
		}()
	}
	wg.Wait()
	stats.Duration = time.Since(start)
	if stats.Duration > 0 {
		stats.SamplesPerSec = float64(stats.Samples) / stats.Duration.Seconds()
	}
	stats.finishLatency()
	return stats, nil
}

// buildSnapshot assembles cluster second t into a wire request.
func buildSnapshot(cfg LoadGenConfig, t int) snapshotPayload {
	snap := snapshotPayload{hasMeter: cfg.IncludeMeter}
	for _, tr := range cfg.Traces {
		sj := SampleJSON{MachineID: tr.MachineID, Platform: tr.Platform, Counters: tr.X.Row(t)}
		if cfg.IncludeMeter {
			w := tr.Power[t]
			sj.MeteredWatts = &w
		}
		snap.req.Samples = append(snap.req.Samples, sj)
		snap.actual += tr.Power[t]
	}
	return snap
}

// sendGroup sends one group as either a single-snapshot request or one
// batch request, and accounts the outcomes.
func sendGroup(client *http.Client, cfg LoadGenConfig, group []snapshotPayload, stats *LoadStats) {
	samples := 0
	for _, s := range group {
		samples += len(s.req.Samples)
	}
	var status int
	var results []EstimateResponse
	var rtt time.Duration
	var err error
	if cfg.Batch == 1 && len(group) == 1 {
		status, results, rtt, err = postOne(client, cfg.TargetURL+"/v1/estimate", group[0].req)
	} else {
		breq := BatchRequest{Requests: make([]EstimateRequest, len(group))}
		for i, s := range group {
			breq.Requests[i] = s.req
		}
		status, results, rtt, err = postBatch(client, cfg.TargetURL+"/v1/estimate/batch", breq)
	}

	prio := overload.ParsePriority(group[0].req.Priority)
	stats.mu.Lock()
	defer stats.mu.Unlock()
	stats.Snapshots += len(group)
	stats.Samples += samples
	stats.latencies = append(stats.latencies, rtt)
	tier := &stats.Tiers[prio]
	tier.Sent += len(group)
	tier.latencies = append(tier.latencies, rtt)
	if err != nil {
		stats.account(prio, 0, len(group))
		return
	}
	if status != http.StatusOK && len(results) == 0 {
		// Whole-request failure (e.g. single endpoint 429/504).
		stats.account(prio, status, len(group))
		return
	}
	for i, r := range results {
		stats.account(prio, r.Status, 1)
		if r.Status == http.StatusOK && i < len(group) && group[i].hasMeter {
			stats.MeterOK++
			d := r.ClusterWatts - group[i].actual
			if d < 0 {
				d = -d
			}
			stats.SumAbsErr += d
		}
	}
}

// drawPriority picks a priority class from the weight vector,
// deterministically in (seed, group): the mix a run replays is a pure
// function of its config. Each group's draw is the first output of its
// own splitmix64 stream, so it allocates nothing.
func drawPriority(weights [overload.NumPriorities]int, seed int64, group int) overload.Priority {
	total := 0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return overload.Interactive
	}
	k := mathx.NewSeedKey(seed).Str("loadgen-prio:").Int(group)
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

// postOne posts a single snapshot; the response body carries the status
// too, so single and batch accounting share a shape.
func postOne(client *http.Client, url string, req EstimateRequest) (int, []EstimateResponse, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	rtt := time.Since(start)
	if err != nil {
		return 0, nil, rtt, err
	}
	defer resp.Body.Close()
	var er EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		return resp.StatusCode, nil, rtt, err
	}
	if er.Status == 0 {
		er.Status = resp.StatusCode
	}
	return resp.StatusCode, []EstimateResponse{er}, rtt, nil
}

func postBatch(client *http.Client, url string, req BatchRequest) (int, []EstimateResponse, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	rtt := time.Since(start)
	if err != nil {
		return 0, nil, rtt, err
	}
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return resp.StatusCode, nil, rtt, err
	}
	return resp.StatusCode, br.Results, rtt, nil
}

// finishLatency computes request-latency percentiles from the recorded
// round trips, overall and per priority tier.
func (s *LoadStats) finishLatency() {
	s.LatencyP50, s.LatencyP99 = latencyQuantiles(s.latencies)
	for i := range s.Tiers {
		t := &s.Tiers[i]
		t.P50, t.P99 = latencyQuantiles(t.latencies)
	}
}

func latencyQuantiles(ds []time.Duration) (p50, p99 time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], ds[(len(ds)*99)/100]
}
