package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/serve"
)

// hedgeFleet stands up a two-node fleet whose front door (n1) scatters to
// one real remote (n2) through an injector, and returns the front URL and
// the node for stats.
func hedgeFleet(t *testing.T, hedgeRate float64, peerChaos faults.PeerFaults, seed int64) (*Node, string) {
	t.Helper()
	remote := newEngine(t, 10)
	h2, err := serve.Serve("127.0.0.1:0", remote)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h2.Close(); remote.Close() })
	inj, err := faults.NewInjector(&faults.Scenario{
		Peers: map[string]faults.PeerFaults{"n2": peerChaos},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	local := newEngine(t, 10)
	t.Cleanup(func() { local.Close() })
	node, err := NewNode(Config{
		Self:  "n1",
		Peers: []Peer{{ID: "n1", Addr: "127.0.0.1:1"}, {ID: "n2", Addr: h2.Addr()}},
		Local: local,
		// PeerDeadline well above the client budget so the forwarded
		// sub-deadline is budget-derived, not peer-cap-derived: the test
		// asserts it visibly shrinks below the client's deadline.
		PeerDeadline: 2 * time.Second,
		HedgeRate:    hedgeRate,
		// The breaker must not mask slow-peer behavior by going open.
		FailThreshold: 1000, Cooldown: time.Minute,
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	node.Mount(mux)
	front := httptest.NewServer(mux)
	t.Cleanup(front.Close)
	return node, front.URL
}

// clusterPost sends one single-machine cluster estimate with a client
// deadline budget and returns the response plus wall latency.
func clusterPost(t *testing.T, url, machine string, budgetMS float64) (ClusterResponse, time.Duration) {
	t.Helper()
	body, _ := json.Marshal(serve.EstimateRequest{
		Samples:    []serve.SampleJSON{{MachineID: machine, Platform: "p", Counters: []float64{1, 1}}},
		DeadlineMS: budgetMS,
	})
	t0 := time.Now()
	resp, err := http.Post(url+"/v1/estimate/cluster", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr, time.Since(t0)
}

// remoteMachine finds a machine ID the fleet assigns to n2, so every
// cluster call in the test exercises the remote scatter path.
func remoteMachine(t *testing.T, n *Node) string {
	t.Helper()
	for i := 0; i < 200; i++ {
		m := "m-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
		if n.Partition().Owner(m).ID == "n2" {
			return m
		}
	}
	t.Fatal("no machine hashed onto n2")
	return ""
}

func p99(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[(len(ds)*99)/100]
}

// TestOverloadHedgedSlowPeer drives the tentpole hedging contract: a peer
// with a rare-but-huge tail (3% of calls take 900ms against a ~775ms
// sub-deadline) would poison cluster p99 with timeouts, and a hedged
// front door restores p99 to within 1.5x a healthy fleet's — while
// staying inside the hedge-rate budget and observably shrinking the
// deadline budget at the hop.
func TestOverloadHedgedSlowPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round fleet replay")
	}
	const budgetMS = 800

	// Healthy yardstick: every remote call costs a flat 40ms, hedging
	// disabled. Its p99 defines "healthy fleet p99".
	healthyNode, healthyURL := hedgeFleet(t, -1, faults.PeerFaults{SlowProb: 1, SlowMS: 40}, 7)
	machine := remoteMachine(t, healthyNode)
	var mu sync.Mutex
	var healthyLat []time.Duration
	run := func(url string, rounds, workers int, each func(ClusterResponse, time.Duration)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					cr, lat := clusterPost(t, url, machine, budgetMS)
					mu.Lock()
					each(cr, lat)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	run(healthyURL, 15, 8, func(cr ClusterResponse, lat time.Duration) {
		if cr.Status != http.StatusOK {
			t.Errorf("healthy fleet returned %d: %+v", cr.Status, cr)
		}
		healthyLat = append(healthyLat, lat)
	})
	p99Healthy := p99(healthyLat)

	// Degraded fleet: mostly-fast peer with a 900ms tail that overruns
	// the ~775ms sub-deadline, hedged at 20% of primary volume.
	degNode, degURL := hedgeFleet(t, 0.2, faults.PeerFaults{SlowProb: 0.03, SlowMS: 900}, 7)
	if m2 := remoteMachine(t, degNode); m2 != machine {
		t.Fatalf("partition disagreement: %s vs %s", m2, machine)
	}

	// Warm-up: the latency tracker needs a handful of observations before
	// the hedge timer can arm, so the first few slow calls are unhedged by
	// design. Outcomes here are not asserted.
	for i := 0; i < 20; i++ {
		clusterPost(t, degURL, machine, budgetMS)
	}

	const measured = 320
	var degLat []time.Duration
	okCount, served := 0, 0
	budgetSeen := 0
	run(degURL, measured/8, 8, func(cr ClusterResponse, lat time.Duration) {
		served++
		if cr.Status == http.StatusOK && cr.Coverage == 1 {
			okCount++
			degLat = append(degLat, lat)
		}
		// Budget propagation: the sub-deadline forwarded to n2 must be a
		// real, already-shrunk slice of the client's 800ms budget.
		if b, ok := cr.PeerBudgetMS["n2"]; ok && b > 0 && b < budgetMS-20 {
			budgetSeen++
		}
	})

	// Goodput: hedges rescue effectively every tail call. The seeded 3%
	// tail allows a sliver of double-bad luck (primary and hedge both
	// slow), nothing more.
	if okCount < measured-3 {
		t.Fatalf("degraded fleet served %d/%d fully; hedging did not rescue the tail", okCount, served)
	}
	if budgetSeen != served {
		t.Errorf("forwarded budget shrank on %d/%d calls, want all", budgetSeen, served)
	}

	p99Deg := p99(degLat)
	t.Logf("p99 healthy=%v hedged-degraded=%v (ok %d/%d)", p99Healthy, p99Deg, okCount, served)
	if p99Deg > p99Healthy*3/2 {
		t.Errorf("hedged p99 %v > 1.5x healthy p99 %v", p99Deg, p99Healthy)
	}

	// The hedge ledger: hedges actually fired and won, and launched
	// hedges stayed within the 20% budget (plus the burst allowance).
	hs := degNode.HedgeStats()
	t.Logf("hedges: %+v", hs)
	if hs.Won == 0 {
		t.Error("no hedge ever won; the slow tail was not hedged")
	}
	launched := hs.Won + hs.Lost
	maxLaunched := uint64(float64(measured+20)*0.2) + 8
	if launched > maxLaunched {
		t.Errorf("launched %d hedges, budget allows at most %d", launched, maxLaunched)
	}
}

// TestOverloadBrownoutPartialRung drives a real local engine to the
// partial brownout rung and checks the front door's local-only contract:
// /v1/estimate/cluster answers 200 with the local slice alone, marks every
// remote peer "brownout" without calling it, and reports the rung, which
// /v1/overload/status agrees with.
func TestOverloadBrownoutPartialRung(t *testing.T) {
	reg := registry.New()
	if err := reg.Add("v1", mkModel(t, 10), registry.Meta{}); err != nil {
		t.Fatal(err)
	}
	// An hour-long tick leaves every ladder step to the test; one tick of
	// full shedding climbs one rung.
	local, err := serve.New(reg, serve.Config{Names: testNames, Overload: &overload.Config{
		Tick: time.Hour, Ladder: overload.LadderConfig{EnterTicks: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Close)
	ov := local.Overload()
	for i := 0; ov.Level() < overload.LevelPartial; i++ {
		if i == overload.MaxLevel {
			t.Fatalf("level %d after %d shedding ticks", ov.Level(), i)
		}
		if ov.LimiterFor(i).AcquireN(overload.Interactive, 1000).Admit {
			t.Fatal("limiter admitted 1000 samples at its initial limit")
		}
		ov.Step()
	}

	// The remote peers' addresses refuse connections, so a fan-out would
	// read "down", never "brownout".
	peers := []Peer{{ID: "n1", Addr: "127.0.0.1:1"}, {ID: "n2", Addr: "127.0.0.1:1"}, {ID: "n3", Addr: "127.0.0.1:1"}}
	node, err := NewNode(Config{Self: "n1", Peers: peers, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	mux := serve.NewMux(local)
	node.Mount(mux)
	front := httptest.NewServer(mux)
	t.Cleanup(front.Close)

	var req serve.EstimateRequest
	mine := 0
	for i := 0; i < 30; i++ {
		m := fmt.Sprintf("m-%02d", i)
		req.Samples = append(req.Samples, serve.SampleJSON{MachineID: m, Platform: "p", Counters: []float64{1, 1}})
		if node.Partition().Local(m) {
			mine++
		}
	}
	if mine == 0 || mine == len(req.Samples) {
		t.Fatalf("degenerate split: %d of %d machines local", mine, len(req.Samples))
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(front.URL+"/v1/estimate/cluster", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var cr ClusterResponse
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || cr.Status != http.StatusOK {
		t.Fatalf("partial-rung gather: http %d, %+v", resp.StatusCode, cr)
	}
	if cr.BrownoutLevel != overload.LevelPartial {
		t.Errorf("brownout_level %d, want %d", cr.BrownoutLevel, overload.LevelPartial)
	}
	if len(cr.PerMachine) != mine || len(cr.MissingMachines) != len(req.Samples)-mine {
		t.Errorf("served %d, missing %d; want the %d local machines only", len(cr.PerMachine), len(cr.MissingMachines), mine)
	}
	for m, w := range cr.PerMachine {
		if !node.Partition().Local(m) || w != 13 {
			t.Errorf("machine %s served at %v W (local %v), want local machines at 13 W", m, w, node.Partition().Local(m))
		}
	}
	if want := float64(mine) / float64(len(req.Samples)); cr.Coverage != want || cr.Coverage >= 1 {
		t.Errorf("coverage %v, want %v", cr.Coverage, want)
	}
	if want := map[string]string{"n1": "local", "n2": "brownout", "n3": "brownout"}; fmt.Sprint(cr.Peers) != fmt.Sprint(want) {
		t.Errorf("peer outcomes %v, want %v", cr.Peers, want)
	}

	sresp, err := http.Get(front.URL + "/v1/overload/status")
	if err != nil {
		t.Fatal(err)
	}
	var st overload.Status
	err = json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK || st.Level != overload.LevelPartial {
		t.Errorf("/v1/overload/status: http %d, level %d; want 200, %d", sresp.StatusCode, st.Level, overload.LevelPartial)
	}
}
