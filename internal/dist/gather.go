package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/overload"
	"repro/internal/serve"
)

var errNilLocal = fmt.Errorf("dist: node needs a local serving engine")

// Hedge outcome counters: won (hedge beat the primary), lost (primary
// beat a launched hedge), denied (the rate budget refused a hedge).
var (
	hedgesWonCtr    = obs.Default().Counter("chaos_hedges_total", obs.Labels{"outcome": "won"})
	hedgesLostCtr   = obs.Default().Counter("chaos_hedges_total", obs.Labels{"outcome": "lost"})
	hedgesDeniedCtr = obs.Default().Counter("chaos_hedges_total", obs.Labels{"outcome": "denied"})
)

// ClusterResponse is the merged result of one scatter-gather. The
// degradation contract: the response is 200 whenever at least one
// requested machine was served; machines on dead, slow, or overloaded
// peers are listed in missing_machines and excluded from cluster_watts,
// and coverage reports the served fraction — the PR-2 coverage semantics
// lifted from per-machine predictors to whole nodes. 503 only when
// nothing at all could be served.
type ClusterResponse struct {
	Status          int                `json:"status"`
	ClusterWatts    float64            `json:"cluster_watts"`
	PerMachine      map[string]float64 `json:"per_machine,omitempty"`
	Coverage        float64            `json:"coverage"`
	MissingMachines []string           `json:"missing_machines,omitempty"`
	ModelVersions   []string           `json:"model_versions,omitempty"`
	// Peers maps each peer that was scattered to, to its outcome:
	// "ok", "local", "open" (breaker), "down", "degraded: <why>",
	// "budget_exhausted" (no deadline budget left to call it), or
	// "brownout" (the front door is at the local-only rung).
	Peers map[string]string `json:"peers"`
	// PeerBudgetMS records the sub-deadline forwarded to each remote
	// peer: min(remaining budget − margin, peer deadline), so the budget
	// observably shrinks hop by hop.
	PeerBudgetMS map[string]float64 `json:"peer_budget_ms,omitempty"`
	// BrownoutLevel is the front door's brownout rung at answer time;
	// at the partial rung the answer is local-only.
	BrownoutLevel int    `json:"brownout_level,omitempty"`
	Error         string `json:"error,omitempty"`
}

// peerResult is one peer's slice of the gather.
type peerResult struct {
	peerID   string
	outcome  string
	perMach  map[string]float64
	versions []string
}

// handleCluster is the /v1/estimate/cluster front door: split the
// snapshot by owner, serve the local slice directly, scatter the rest
// with per-peer deadlines, and merge whatever came back.
func (n *Node) handleCluster(w http.ResponseWriter, r *http.Request) {
	var req serve.EstimateRequest
	body, err := readBody(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ClusterResponse{Status: http.StatusBadRequest, Error: err.Error()})
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ClusterResponse{Status: http.StatusBadRequest, Error: "parsing body: " + err.Error()})
		return
	}
	if len(req.Samples) == 0 {
		writeJSON(w, http.StatusBadRequest, ClusterResponse{Status: http.StatusBadRequest, Error: "no samples"})
		return
	}
	// The whole-request deadline budget every hop draws down. Each
	// remote call gets min(remaining − margin, peer deadline); a peer the
	// budget can no longer cover is refused up front instead of fanned
	// out to and abandoned.
	start := time.Now()
	budget := time.Duration(req.DeadlineMS * float64(time.Millisecond))
	if budget <= 0 {
		budget = n.cfg.ClusterDeadline
	}
	prio := req.Priority
	if prio == "" {
		prio = r.Header.Get(serve.PriorityHeader)
	}
	level := n.cfg.Local.BrownoutLevel()

	// Split the snapshot by owning peer.
	byPeer := map[string][]serve.SampleJSON{}
	for _, s := range req.Samples {
		owner := n.part.Owner(s.MachineID).ID
		byPeer[owner] = append(byPeer[owner], s)
	}

	peerBudget := map[string]float64{}
	results := make(chan peerResult, len(byPeer))
	var wg sync.WaitGroup
	for peerID, samples := range byPeer {
		if peerID != n.part.Self() {
			// Brownout partial rung: stop fanning out, serve the local
			// slice only — a coverage-partial answer beats a timeout.
			if level >= overload.LevelPartial {
				results <- peerResult{peerID: peerID, outcome: "brownout"}
				continue
			}
			remaining := budget - time.Since(start) - n.cfg.BudgetMargin
			sub := remaining
			if sub > n.cfg.PeerDeadline {
				sub = n.cfg.PeerDeadline
			}
			if sub <= 0 {
				peerBudget[peerID] = 0
				results <- peerResult{peerID: peerID, outcome: "budget_exhausted"}
				continue
			}
			peerBudget[peerID] = sub.Seconds() * 1e3
			wg.Add(1)
			go func(peerID string, samples []serve.SampleJSON, sub time.Duration) {
				defer wg.Done()
				results <- n.gatherRemote(peerID, samples, sub, prio)
			}(peerID, samples, sub)
			continue
		}
		wg.Add(1)
		go func(samples []serve.SampleJSON) {
			defer wg.Done()
			results <- n.gatherLocal(samples, budget, prio)
		}(samples)
	}
	wg.Wait()
	close(results)

	resp := ClusterResponse{
		PerMachine: map[string]float64{}, Peers: map[string]string{},
		PeerBudgetMS: peerBudget, BrownoutLevel: level,
	}
	versions := map[string]bool{}
	for pr := range results {
		resp.Peers[pr.peerID] = pr.outcome
		for m, watts := range pr.perMach {
			resp.PerMachine[m] = watts
			resp.ClusterWatts += watts
		}
		for _, v := range pr.versions {
			if v != "" {
				versions[v] = true
			}
		}
	}
	for v := range versions {
		resp.ModelVersions = append(resp.ModelVersions, v)
	}
	sort.Strings(resp.ModelVersions)
	for _, s := range req.Samples {
		if _, ok := resp.PerMachine[s.MachineID]; !ok {
			resp.MissingMachines = append(resp.MissingMachines, s.MachineID)
		}
	}
	sort.Strings(resp.MissingMachines)
	resp.Coverage = float64(len(resp.PerMachine)) / float64(len(req.Samples))
	coverageGauge.Set(resp.Coverage)

	if len(resp.PerMachine) == 0 {
		resp.Status = http.StatusServiceUnavailable
		resp.Error = "no peer could serve any requested machine"
	} else {
		resp.Status = http.StatusOK
	}
	writeJSON(w, resp.Status, resp)
}

// gatherLocal serves this node's own slice through the local engine.
// Overload and deadline failures degrade exactly like a slow peer: the
// machines go missing, the rest of the cluster answer survives.
func (n *Node) gatherLocal(samples []serve.SampleJSON, budget time.Duration, prio string) peerResult {
	pr := peerResult{peerID: n.part.Self(), outcome: "local"}
	in := make([]online.Sample, len(samples))
	for i, s := range samples {
		in[i] = online.Sample{MachineID: s.MachineID, Platform: s.Platform, Counters: s.Counters}
	}
	res, err := n.cfg.Local.EstimatePriority(in, budget, nil, nil, overload.ParsePriority(prio))
	if res != nil {
		pr.perMach = res.PerMachine
		pr.versions = res.Versions
	}
	if err != nil {
		pr.outcome = "degraded: " + err.Error()
	}
	return pr
}

// Each peer's hedge timer reads the rolling latency of its last
// hedgeWindow successful calls, and stays disarmed until it has seen
// minHedgeSamples of them.
const (
	hedgeWindow     = 128
	minHedgeSamples = 8
)

// attempt is one call's outcome plus what hedging needs to pick a winner.
type attempt struct {
	pr      peerResult
	elapsed time.Duration
	hedge   bool
}

// gatherRemote calls one owning peer within the sub-deadline the budget
// allows, guarded by its breaker. When the primary call outlives the
// peer's rolling p95 latency and the hedge budget has a token,
// a backup call races it; the first 200 wins and the loser is canceled.
// Breaker and health accounting apply to the winning attempt only, so a
// canceled loser never fakes a peer-down transition.
func (n *Node) gatherRemote(peerID string, samples []serve.SampleJSON, sub time.Duration, prio string) peerResult {
	brk := n.breaker(peerID)
	if brk != nil && !brk.Allow(time.Now()) {
		return peerResult{peerID: peerID, outcome: "open"}
	}
	if n.hedge != nil {
		n.hedge.NotePrimary()
	}
	// Arm the hedge at the rolling quantile, clamped into [1ms, sub/2]
	// so a hedge always has at least half the sub-deadline to finish.
	var hedgeDelay time.Duration
	if n.hedge != nil {
		if tr := n.trackers[peerID]; tr != nil && tr.Len() >= minHedgeSamples {
			if q := time.Duration(tr.Quantile(0.95) * float64(time.Second)); q > 0 {
				hedgeDelay = q
				if hedgeDelay < time.Millisecond {
					hedgeDelay = time.Millisecond
				}
				if hedgeDelay > sub/2 {
					hedgeDelay = sub / 2
				}
			}
		}
	}

	resCh := make(chan attempt, 2) // buffered: a canceled loser never blocks
	run := func(ctx context.Context, hedge bool) {
		t0 := time.Now()
		pr := n.callPeer(ctx, peerID, samples, sub, prio)
		resCh <- attempt{pr: pr, elapsed: time.Since(t0), hedge: hedge}
	}
	primCtx, primCancel := context.WithTimeout(context.Background(), sub)
	defer primCancel()
	go run(primCtx, false)

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if hedgeDelay > 0 {
		hedgeTimer = time.NewTimer(hedgeDelay)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}
	var hedgeCancel context.CancelFunc
	launched := false
	pending := 1
	var winner *attempt
	var first *attempt
	for pending > 0 {
		select {
		case a := <-resCh:
			pending--
			if first == nil {
				cp := a
				first = &cp
			}
			if a.pr.outcome == "ok" {
				cp := a
				winner = &cp
				pending = 0 // the loser is canceled below and drains into the buffer
			}
		case <-hedgeC:
			hedgeC = nil
			if n.hedge.Allow() {
				launched = true
				pending++
				var hctx context.Context
				hctx, hedgeCancel = context.WithTimeout(context.Background(), sub)
				go run(hctx, true)
			} else {
				n.hDenied.Add(1)
				hedgesDeniedCtr.Inc()
			}
		}
	}
	primCancel()
	if hedgeCancel != nil {
		hedgeCancel()
	}
	if winner == nil {
		winner = first // no attempt succeeded; report the first failure
	}
	if launched {
		if winner.pr.outcome == "ok" && winner.hedge {
			n.hWon.Add(1)
			hedgesWonCtr.Inc()
		} else {
			n.hLost.Add(1)
			hedgesLostCtr.Inc()
		}
	}

	// Health and breaker accounting on the winning attempt only.
	switch {
	case winner.pr.outcome == "ok":
		if tr := n.trackers[peerID]; tr != nil {
			tr.Observe(winner.elapsed.Seconds())
		}
		n.ok(peerID, brk)
	case winner.pr.outcome == "down":
		n.fail(peerID, brk)
	default:
		n.ok(peerID, brk) // degraded: the peer answered, it is alive
	}
	return winner.pr
}

// callPeer performs one HTTP attempt against a peer, subject to injected
// node-level chaos, with no breaker or health side effects (the caller
// accounts the winning attempt). Failure taxonomy: transport errors and
// 5xx report "down" (the peer itself is sick); 429/503/504 report
// "degraded" (the peer answered — overloaded, not dead).
func (n *Node) callPeer(ctx context.Context, peerID string, samples []serve.SampleJSON, sub time.Duration, prio string) peerResult {
	pr := peerResult{peerID: peerID}
	peer, _ := n.part.Peer(peerID)

	// Node-level chaos rides the same second index as machine faults;
	// the call sequence decorrelates a hedge's latency draw from its
	// primary's within the same second.
	if inj := n.cfg.Injector; inj != nil {
		t := n.simSecond()
		call := int(n.callSeq.Add(1))
		if inj.PeerDown(peerID, t) {
			pr.outcome = "down"
			return pr
		}
		if inj.PeerPartitioned(peerID, t) {
			<-ctx.Done() // partition: the call hangs until its deadline
			pr.outcome = "down"
			return pr
		}
		if ms := inj.PeerLatencyMS(peerID, t, call); ms > 0 {
			select {
			case <-time.After(time.Duration(ms) * time.Millisecond):
			case <-ctx.Done():
				pr.outcome = "down"
				return pr
			}
		}
	}

	reqBody, err := json.Marshal(serve.EstimateRequest{
		Samples: samples, DeadlineMS: sub.Seconds() * 1e3, Priority: prio,
	})
	if err != nil {
		pr.outcome = "degraded: " + err.Error()
		return pr
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+peer.Addr+"/v1/estimate", bytes.NewReader(reqBody))
	if err != nil {
		pr.outcome = "degraded: " + err.Error()
		return pr
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if prio != "" {
		httpReq.Header.Set(serve.PriorityHeader, prio)
	}
	httpResp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		pr.outcome = "down"
		return pr
	}
	defer httpResp.Body.Close()

	var er serve.EstimateResponse
	decodeErr := json.NewDecoder(httpResp.Body).Decode(&er)
	switch {
	case httpResp.StatusCode == http.StatusOK && decodeErr == nil:
		pr.perMach = er.PerMachine
		pr.versions = []string{er.ModelVersion}
		pr.outcome = "ok"
	case httpResp.StatusCode >= http.StatusInternalServerError &&
		httpResp.StatusCode != http.StatusServiceUnavailable &&
		httpResp.StatusCode != http.StatusGatewayTimeout:
		pr.outcome = "down"
	default:
		// The peer answered: overloaded (429), model-less (503), late
		// (504), or misdirected (421, stale partition view). Its machines
		// are missing from this snapshot but the node is alive.
		pr.outcome = fmt.Sprintf("degraded: peer status %d", httpResp.StatusCode)
	}
	return pr
}

// ok and fail update breaker plus health gauge together.
func (n *Node) ok(peerID string, brk *faults.Breaker) {
	if brk != nil {
		brk.Success()
	}
	n.notePeer(peerID, true)
}

func (n *Node) fail(peerID string, brk *faults.Breaker) {
	if brk != nil {
		brk.Failure(time.Now())
	}
	n.notePeer(peerID, false)
}

// readBody caps and reads one request body.
func readBody(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	buf := &bytes.Buffer{}
	if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, 64<<20)); err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return buf.Bytes(), nil
}

// writeJSON mirrors the serve package's response helper.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}
