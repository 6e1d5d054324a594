package dist

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/serve"
)

// Distributed-serving instruments. Coverage is the fleet-health headline:
// 1.0 means every requested machine was served, 2/3 means one of three
// nodes is dark.
var coverageGauge = obs.Default().Gauge("chaos_cluster_coverage_ratio", nil)

// Config wires one serving node into the fleet. Zero values take
// defaults.
type Config struct {
	// Self is this node's peer ID; it must appear in Peers.
	Self string
	// Peers is the static fleet list (identical on every node).
	Peers []Peer
	// Local is this node's serving engine, answering for owned machines.
	Local *serve.Server
	// PeerDeadline bounds one scatter call to one peer (default 500ms).
	// The front door degrades past it: the peer's machines go missing
	// from the merged response rather than stalling the whole request.
	PeerDeadline time.Duration
	// ClusterDeadline is the whole-request budget for
	// /v1/estimate/cluster when the client sends no deadline_ms
	// (default 2s). Each hop forwards min(remaining budget − margin,
	// PeerDeadline) and refuses fan-out that cannot finish.
	ClusterDeadline time.Duration
	// BudgetMargin is the per-hop slice of budget reserved for merging
	// and serialization, withheld from every forwarded sub-deadline
	// (default 25ms).
	BudgetMargin time.Duration
	// HedgeQuantile arms a backup request to a slow peer once its
	// primary call outlives this rolling latency quantile (default
	// 0.95). Negative disables hedging.
	HedgeQuantile float64
	// HedgeRate bounds hedges to roughly this fraction of primary calls
	// via a token bucket (default 0.1, burst 8). Negative disables
	// hedging.
	HedgeRate float64
	// Level, when set, reports the local brownout rung
	// (overload.Level*). At overload.LevelPartial the front door stops
	// fanning out and serves coverage-partial local-only answers.
	Level func() int
	// FailThreshold and Cooldown tune the per-peer circuit breaker
	// (defaults 3 failures, 5s cooldown).
	FailThreshold int
	Cooldown      time.Duration
	// Client performs peer HTTP calls (default http.DefaultClient).
	Client *http.Client
	// Events, when set, receives peer_down / peer_recovered transitions.
	Events *obs.EventSink
	// Injector, when set, injects node-level chaos (peer crash windows,
	// partitions, slow-peer latency) into the scatter path, keyed by
	// seconds since the node started.
	Injector *faults.Injector
}

// Node is the scatter-gather front door plus per-peer health tracking.
type Node struct {
	cfg   Config
	part  *Partition
	start time.Time

	// Hedging state: a rolling latency window per peer (seconds) arms
	// the hedge timer; one token bucket bounds total hedge volume;
	// callSeq decorrelates injected latency draws between a primary and
	// its hedge.
	trackers map[string]*obs.Window
	hedge    *overload.HedgeBudget
	callSeq  atomic.Uint64
	hWon     atomic.Uint64
	hLost    atomic.Uint64
	hDenied  atomic.Uint64

	mu       sync.Mutex
	breakers map[string]*faults.Breaker
	lastUp   map[string]bool
}

// HedgeStats is the node's hedge ledger: launched hedges that beat the
// primary (Won), launched hedges the primary beat (Lost), and hedges the
// rate budget refused (Denied).
type HedgeStats struct {
	Won    uint64 `json:"won"`
	Lost   uint64 `json:"lost"`
	Denied uint64 `json:"denied"`
}

// HedgeStats reports the node's hedge outcomes so far.
func (n *Node) HedgeStats() HedgeStats {
	return HedgeStats{Won: n.hWon.Load(), Lost: n.hLost.Load(), Denied: n.hDenied.Load()}
}

// NewNode validates the config and builds the node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Local == nil {
		return nil, errNilLocal
	}
	part, err := NewPartition(cfg.Self, cfg.Peers)
	if err != nil {
		return nil, err
	}
	if cfg.PeerDeadline <= 0 {
		cfg.PeerDeadline = 500 * time.Millisecond
	}
	if cfg.ClusterDeadline <= 0 {
		cfg.ClusterDeadline = 2 * time.Second
	}
	if cfg.BudgetMargin <= 0 {
		cfg.BudgetMargin = 25 * time.Millisecond
	}
	if cfg.HedgeQuantile == 0 {
		cfg.HedgeQuantile = 0.95
	}
	if cfg.HedgeRate == 0 {
		cfg.HedgeRate = 0.1
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	n := &Node{
		cfg:      cfg,
		part:     part,
		start:    time.Now(),
		trackers: map[string]*obs.Window{},
		breakers: map[string]*faults.Breaker{},
		lastUp:   map[string]bool{},
	}
	if cfg.HedgeQuantile > 0 && cfg.HedgeRate > 0 {
		n.hedge = overload.NewHedgeBudget(cfg.HedgeRate, 0)
	}
	for _, p := range part.Peers() {
		if p.ID == cfg.Self {
			continue
		}
		n.breakers[p.ID] = faults.NewBreaker(cfg.FailThreshold, cfg.Cooldown)
		n.lastUp[p.ID] = true
		n.trackers[p.ID] = obs.NewWindow(hedgeWindow)
		peerUpGauge(p.ID).Set(1)
	}
	return n, nil
}

// Partition exposes the node's partition map (the serve.Config.Owner
// hook closes over it).
func (n *Node) Partition() *Partition { return n.part }

// Mount registers the distributed endpoints on the serving mux.
func (n *Node) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/v1/estimate/cluster", n.handleCluster)
	mux.HandleFunc("/v1/dist/status", n.handleStatus)
}

// simSecond maps wall time onto the injector's second index.
func (n *Node) simSecond() int { return int(time.Since(n.start) / time.Second) }

// breaker returns the peer's breaker (nil for self).
func (n *Node) breaker(peerID string) *faults.Breaker {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.breakers[peerID]
}

// peerUpGauge resolves chaos_peer_up{peer=...}.
func peerUpGauge(peerID string) *obs.Gauge {
	return obs.Default().Gauge("chaos_peer_up", obs.Labels{"peer": peerID})
}

// notePeer records one call outcome for peer health: the gauge flips and
// a peer_down / peer_recovered event fires on transitions only.
func (n *Node) notePeer(peerID string, up bool) {
	n.mu.Lock()
	was := n.lastUp[peerID]
	n.lastUp[peerID] = up
	n.mu.Unlock()
	if up {
		peerUpGauge(peerID).Set(1)
	} else {
		peerUpGauge(peerID).Set(0)
	}
	if was == up || n.cfg.Events == nil {
		return
	}
	event := "peer_recovered"
	if !up {
		event = "peer_down"
	}
	n.cfg.Events.Emit(event, map[string]any{"peer": peerID}) //nolint:errcheck // telemetry only
}

// handleStatus reports the node's view of the fleet: its own ID, the
// partition, and each peer's breaker state.
func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	type peerStatus struct {
		Addr    string `json:"addr"`
		Breaker string `json:"breaker,omitempty"`
		Up      bool   `json:"up"`
	}
	now := time.Now()
	n.mu.Lock()
	peers := map[string]peerStatus{}
	for _, p := range n.part.Peers() {
		ps := peerStatus{Addr: p.Addr, Up: true}
		if b := n.breakers[p.ID]; b != nil {
			ps.Breaker = b.State(now)
			ps.Up = n.lastUp[p.ID]
		}
		peers[p.ID] = ps
	}
	n.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"self": n.part.Self(), "peers": peers, "hedges": n.HedgeStats(),
	})
}
