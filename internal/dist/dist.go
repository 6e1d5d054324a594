// Package dist is the coordinator-free multi-node serving layer. The
// paper's composability result (Eq. 5: cluster power is the sum of
// independent per-machine predictions) means the fleet can be split
// across serving nodes with no shared state at estimation time: each
// machine's predictor lives on exactly one node, chosen by rendezvous
// hashing over a static peer list that every node computes identically.
// Three pieces ride on that: a partition map (this file), a
// scatter-gather front door that fans a cluster snapshot out to the
// owning peers and merges partial results (gather.go), and registry
// replication that tails the leader's journal so every node serves the
// same model versions (replicate.go, follower.go).
package dist

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mathx"
)

// Peer is one serving node in the static peer list.
type Peer struct {
	ID   string `json:"id"`
	Addr string `json:"addr"` // host:port of the peer's serve API
}

// ParsePeers parses the -peers flag format: "id=host:port,id=host:port".
// Every node must be given the identical list (order does not matter —
// rendezvous hashing is order-independent).
func ParsePeers(s string) ([]Peer, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("dist: empty peer list")
	}
	var peers []Peer
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("dist: peer %q is not id=host:port", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("dist: duplicate peer ID %q", id)
		}
		seen[id] = true
		peers = append(peers, Peer{ID: id, Addr: addr})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("dist: empty peer list")
	}
	return peers, nil
}

// Partition assigns machines to peers by rendezvous (highest-random-
// weight) hashing: every node scores each (peer, machine) pair with the
// same deterministic hash and the highest score owns the machine. No
// coordination, no assignment table — and when a peer leaves the list,
// only the machines it owned move.
type Partition struct {
	self  string
	peers []Peer
}

// NewPartition builds the partition map for one node. self must appear
// in peers.
func NewPartition(self string, peers []Peer) (*Partition, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("dist: no peers")
	}
	sorted := append([]Peer(nil), peers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	found := false
	for _, p := range sorted {
		if p.ID == self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("dist: node ID %q not in peer list", self)
	}
	return &Partition{self: self, peers: sorted}, nil
}

// score is the rendezvous weight of machine on peer: a splitmix64
// scramble of the seed DeriveSeed(0, peerID+"\x00"+machineID), hashed
// without building that key. DeriveSeed alone is a weak (fnv-based) mix;
// one mathx.Mix64 step decorrelates adjacent inputs, the same discipline
// the fault injector uses.
func score(peerID, machineID string) uint64 {
	return mathx.Mix64(uint64(mathx.NewSeedKey(0).Str(peerID).Str("\x00").Str(machineID).Seed()))
}

// Owner returns the peer that owns machineID.
func (p *Partition) Owner(machineID string) Peer {
	best := p.peers[0]
	bestScore := score(best.ID, machineID)
	for _, peer := range p.peers[1:] {
		if s := score(peer.ID, machineID); s > bestScore || (s == bestScore && peer.ID < best.ID) {
			best, bestScore = peer, s
		}
	}
	return best
}

// Local reports whether this node owns machineID.
func (p *Partition) Local(machineID string) bool {
	return p.Owner(machineID).ID == p.self
}

// Self returns this node's peer ID.
func (p *Partition) Self() string { return p.self }

// Peers returns the sorted peer list.
func (p *Partition) Peers() []Peer { return p.peers }

// Peer looks up a peer by ID.
func (p *Partition) Peer(id string) (Peer, bool) {
	for _, peer := range p.peers {
		if peer.ID == id {
			return peer, true
		}
	}
	return Peer{}, false
}
