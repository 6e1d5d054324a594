package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/store"
)

var testNames = []string{"a", "b"}

// mkModel builds a one-platform cluster model: watts = intercept + a + 2b.
func mkModel(t *testing.T, intercept float64) *models.ClusterModel {
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

// newEngine builds a local serving engine with one active model.
func newEngine(t *testing.T, intercept float64) *serve.Server {
	t.Helper()
	reg := registry.New()
	if err := reg.Add("v1", mkModel(t, intercept), registry.Meta{}); err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(reg, serve.Config{Names: testNames})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestDistParsePeers(t *testing.T) {
	peers, err := ParsePeers("n1=127.0.0.1:7001, n2=127.0.0.1:7002,n3=127.0.0.1:7003")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 || peers[0].ID != "n1" || peers[1].Addr != "127.0.0.1:7002" {
		t.Fatalf("unexpected peers: %+v", peers)
	}
	for _, bad := range []string{"", "n1", "=127.0.0.1:1", "n1=", "n1=a,n1=b"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}

func TestDistPartitionRendezvous(t *testing.T) {
	peers := []Peer{{"n1", "a:1"}, {"n2", "a:2"}, {"n3", "a:3"}}
	part, err := NewPartition("n1", peers)
	if err != nil {
		t.Fatal(err)
	}
	// Peer order must not matter: every node computes the same owners.
	reversed, err := NewPartition("n3", []Peer{peers[2], peers[0], peers[1]})
	if err != nil {
		t.Fatal(err)
	}

	machines := make([]string, 200)
	counts := map[string]int{}
	owners := map[string]string{}
	for i := range machines {
		machines[i] = "m-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10))
		o := part.Owner(machines[i]).ID
		if ro := reversed.Owner(machines[i]).ID; ro != o {
			t.Fatalf("owner of %s differs by peer order: %s vs %s", machines[i], o, ro)
		}
		owners[machines[i]] = o
		counts[o]++
	}
	for _, p := range peers {
		if counts[p.ID] < 20 {
			t.Fatalf("unbalanced partition: %v", counts)
		}
	}

	// Rendezvous minimal movement: removing n3 only moves n3's machines.
	shrunk, err := NewPartition("n1", peers[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range machines {
		after := shrunk.Owner(m).ID
		if owners[m] != "n3" && after != owners[m] {
			t.Fatalf("machine %s moved %s -> %s though its owner survived", m, owners[m], after)
		}
		if owners[m] == "n3" && after == "n3" {
			t.Fatalf("machine %s still owned by removed peer", m)
		}
	}

	if !part.Local(machines[0]) && part.Owner(machines[0]).ID == "n1" {
		t.Fatal("Local disagrees with Owner")
	}
	if _, err := NewPartition("nx", peers); err == nil {
		t.Fatal("NewPartition accepted a self ID outside the peer list")
	}
}

// TestDistBreakerTransitions walks the per-peer faults.Breaker through
// the wall-clock sequence the scatter path drives: closed below the
// threshold, open at it, one half-open probe per cooldown, closed again
// after a successful probe.
func TestDistBreakerTransitions(t *testing.T) {
	cur := time.Unix(1000, 0)
	b := faults.NewBreaker(3, time.Second)

	if !b.Allow(cur) || b.State(cur) != "closed" {
		t.Fatal("new breaker should be closed")
	}
	b.Failure(cur)
	b.Failure(cur)
	if !b.Allow(cur) {
		t.Fatal("below threshold should still allow")
	}
	b.Failure(cur)
	if b.Allow(cur) || b.State(cur) != "open" {
		t.Fatal("threshold reached: breaker should be open")
	}

	cur = cur.Add(1500 * time.Millisecond)
	if b.State(cur) != "half-open" {
		t.Fatalf("cooldown elapsed: want half-open, got %s", b.State(cur))
	}
	if !b.Allow(cur) {
		t.Fatal("cooldown elapsed: one probe should be admitted")
	}
	if b.Allow(cur) {
		t.Fatal("second concurrent probe admitted")
	}
	b.Failure(cur)
	if b.Allow(cur) {
		t.Fatal("failed probe should re-open")
	}
	cur = cur.Add(1500 * time.Millisecond)
	if !b.Allow(cur) {
		t.Fatal("second probe window")
	}
	b.Success()
	if !b.Allow(cur) || b.State(cur) != "closed" {
		t.Fatal("successful probe should close")
	}
}

func TestDistScatterGatherDegradation(t *testing.T) {
	// Two-node fleet: n1 is the front door with a local engine, n2 is a
	// real remote serving node.
	remote := newEngine(t, 10)
	h2, err := serve.Serve("127.0.0.1:0", remote)
	if err != nil {
		t.Fatal(err)
	}
	local := newEngine(t, 10)
	peers := []Peer{{ID: "n1", Addr: "127.0.0.1:1"}, {ID: "n2", Addr: h2.Addr()}}
	node, err := NewNode(Config{
		Self: "n1", Peers: peers, Local: local,
		PeerDeadline: 2 * time.Second, FailThreshold: 2, Cooldown: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	node.Mount(mux)
	front := httptest.NewServer(mux)
	defer front.Close()

	var req serve.EstimateRequest
	mine, theirs := 0, 0
	for i := 0; i < 20; i++ {
		m := "m-" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		req.Samples = append(req.Samples, serve.SampleJSON{MachineID: m, Platform: "p", Counters: []float64{1, 1}})
		if node.Partition().Owner(m).ID == "n1" {
			mine++
		} else {
			theirs++
		}
	}
	if mine == 0 || theirs == 0 {
		t.Fatalf("degenerate split mine=%d theirs=%d", mine, theirs)
	}

	post := func() ClusterResponse {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(front.URL+"/v1/estimate/cluster", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var cr ClusterResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != cr.Status {
			t.Fatalf("http status %d != body status %d", resp.StatusCode, cr.Status)
		}
		return cr
	}

	// Healthy fleet: full coverage, every machine at watts = 10+1+2.
	cr := post()
	if cr.Status != http.StatusOK || cr.Coverage != 1.0 || len(cr.PerMachine) != 20 {
		t.Fatalf("healthy gather: %+v", cr)
	}
	if cr.Peers["n1"] != "local" || cr.Peers["n2"] != "ok" {
		t.Fatalf("peer outcomes: %v", cr.Peers)
	}
	for m, w := range cr.PerMachine {
		if w != 13 {
			t.Fatalf("machine %s watts %v, want 13", m, w)
		}
	}
	if len(cr.MissingMachines) != 0 {
		t.Fatalf("missing machines on healthy fleet: %v", cr.MissingMachines)
	}

	// Kill n2. The gather must degrade — 200, partial coverage, n2's
	// machines listed missing — never fail outright.
	h2.Close()
	remote.Close()
	cr = post()
	if cr.Status != http.StatusOK {
		t.Fatalf("degraded gather returned %d: %+v", cr.Status, cr)
	}
	if len(cr.PerMachine) != mine || len(cr.MissingMachines) != theirs {
		t.Fatalf("degraded coverage: served=%d missing=%d want %d/%d", len(cr.PerMachine), len(cr.MissingMachines), mine, theirs)
	}
	if want := float64(mine) / 20; cr.Coverage != want {
		t.Fatalf("coverage %v, want %v", cr.Coverage, want)
	}
	if cr.Peers["n2"] != "down" {
		t.Fatalf("dead peer outcome %q", cr.Peers["n2"])
	}

	// Second failure trips the breaker (threshold 2); the third gather
	// skips the peer without attempting a connection.
	post()
	cr = post()
	if cr.Peers["n2"] != "open" {
		t.Fatalf("breaker did not open: %v", cr.Peers)
	}

	// A request entirely for dead-peer machines is the only 503.
	all := req.Samples
	req.Samples = nil
	for _, s := range all {
		if node.Partition().Owner(s.MachineID).ID == "n2" {
			req.Samples = append(req.Samples, s)
		}
	}
	cr = post()
	if cr.Status != http.StatusServiceUnavailable || cr.Coverage != 0 {
		t.Fatalf("all-owned-by-dead-peer gather: %+v", cr)
	}
}

// journalAdmits counts admit records per version in a registry journal.
func journalAdmits(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads, consumed, err := store.DecodeFrames(data)
	if err != nil || consumed != len(data) {
		t.Fatalf("journal decode: consumed %d of %d, err %v", consumed, len(data), err)
	}
	admits := map[string]int{}
	for _, p := range payloads {
		var rc struct {
			Op      string `json:"op"`
			Version string `json:"version"`
		}
		if err := json.Unmarshal(p, &rc); err != nil {
			t.Fatal(err)
		}
		if rc.Op == "admit" {
			admits[rc.Version]++
		}
	}
	return admits
}

func sameJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab, bb)
}

func TestDistFollowerReplicatesAcrossLeaderRestart(t *testing.T) {
	lreg, _, err := registry.Open(t.TempDir(), registry.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lreg.Close()
	for v, ic := range map[string]float64{"v1": 10, "v2": 20} {
		if err := lreg.Add(v, mkModel(t, ic), registry.Meta{Description: v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lreg.Activate("v2"); err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	MountReplication(mux, lreg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // closed below

	fdir := t.TempDir()
	freg, _, err := registry.Open(fdir, registry.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	cfg := FollowerConfig{
		LeaderURL: "http://" + addr, Registry: freg,
		CheckpointPath: filepath.Join(fdir, "replication.ckpt"),
		NodeID:         "n2", PollWait: 50 * time.Millisecond,
		Events: obs.NewEventSink(&events),
	}
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}

	waitFor(t, "initial catch-up", func() bool { return f.CaughtUp() && freg.Len() == 2 })
	if !sameJSON(t, lreg.List(), freg.List()) {
		t.Fatalf("replicated List diverges:\nleader  %+v\nfollower %+v", lreg.List(), freg.List())
	}
	if freg.ActiveVersion() != "v2" || f.Lag() != 0 {
		t.Fatalf("active=%s lag=%d", freg.ActiveVersion(), f.Lag())
	}

	// Live tail: a new admission flows through the long poll.
	if err := lreg.Add("v3", mkModel(t, 30), registry.Meta{Description: "v3"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "live tail of v3", func() bool { return freg.Len() == 3 && f.CaughtUp() })

	// Leader restarts mid-stream; a version admitted while it is down
	// must reach the follower after the listener comes back — without
	// duplicating anything admitted before.
	srv.Close()
	if err := lreg.Add("v4", mkModel(t, 40), registry.Meta{Description: "v4"}); err != nil {
		t.Fatal(err)
	}
	var ln2 net.Listener
	waitFor(t, "rebinding leader address", func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	srv2 := &http.Server{Handler: mux}
	go srv2.Serve(ln2) //nolint:errcheck // closed below
	defer srv2.Close()

	waitFor(t, "catch-up after leader restart", func() bool { return freg.Len() == 4 && f.CaughtUp() })
	f.Close()

	// Follower restart: the checkpoint resumes the tail without
	// re-applying (the journal must not grow a second admit).
	_, sizeBefore, _, _, _ := freg.ReplicationStatus()
	f2, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "catch-up after follower restart", func() bool { return f2.CaughtUp() })
	f2.Close()
	if _, got, _, _, _ := freg.ReplicationStatus(); got != sizeBefore {
		t.Fatalf("follower restart grew journal %d -> %d: duplicate applies", sizeBefore, got)
	}

	if !sameJSON(t, lreg.List(), freg.List()) || freg.ActiveVersion() != lreg.ActiveVersion() {
		t.Fatal("final state diverges from leader")
	}
	jpath, _, _, _, _ := freg.ReplicationStatus()
	if err := freg.Close(); err != nil {
		t.Fatal(err)
	}
	for v, n := range journalAdmits(t, jpath) {
		if n != 1 {
			t.Fatalf("version %s admitted %d times in follower journal", v, n)
		}
	}
	if !strings.Contains(events.String(), "replica_caught_up") {
		t.Fatalf("no replica_caught_up event in %s", events.String())
	}
}

// fakeLeader serves scripted journal bytes so the test controls exactly
// what the follower sees: a torn tail first, then the full stream, then
// corrupt bytes forcing a snapshot resync.
type fakeLeader struct {
	mu       sync.Mutex
	phase    int // 0 torn, 1 full, 2 corrupt, 3 quiet
	raw      []byte
	tornEnd  int
	garbage  []byte
	snapshot SnapshotResponse
	resyncs  int
}

func (fl *fakeLeader) handle(w http.ResponseWriter, r *http.Request) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if r.URL.Path == "/v1/replicate/snapshot" {
		fl.resyncs++
		fl.phase = 3
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(fl.snapshot) //nolint:errcheck // test server
		return
	}
	offset, _ := strconv.ParseInt(r.URL.Query().Get("offset"), 10, 64)
	size := int64(len(fl.raw))
	body := fl.raw
	switch fl.phase {
	case 0:
		body = fl.raw[:fl.tornEnd]
	case 2:
		size += int64(len(fl.garbage))
		body = append(append([]byte{}, fl.raw...), fl.garbage...)
	case 3:
		size = fl.snapshot.Offset
		body = body[:0]
	}
	setCoords(w, size, fl.snapshot.Records, fl.snapshot.Epoch)
	if offset >= int64(len(body)) {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body[offset:]) //nolint:errcheck // test server
}

func (fl *fakeLeader) setPhase(p int) {
	fl.mu.Lock()
	fl.phase = p
	fl.mu.Unlock()
}

func TestDistFollowerTornTailAndCorruptStream(t *testing.T) {
	// Real frames and snapshot from a real leader registry.
	lreg, _, err := registry.Open(t.TempDir(), registry.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v, ic := range map[string]float64{"v1": 10, "v2": 20} {
		if err := lreg.Add(v, mkModel(t, ic), registry.Meta{Description: v}); err != nil {
			t.Fatal(err)
		}
	}
	lpath, _, _, _, _ := lreg.ReplicationStatus()
	raw, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	payloads, consumed, err := store.DecodeFrames(raw)
	if err != nil || len(payloads) != 2 || consumed != len(raw) {
		t.Fatalf("leader journal: %d payloads, consumed %d/%d, err %v", len(payloads), consumed, len(raw), err)
	}
	snap, size, records, epoch, err := lreg.ReplicaSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	lreg.Close()

	frame1 := 8 + len(payloads[0])
	fl := &fakeLeader{
		raw:     raw,
		tornEnd: frame1 + 4, // frame 1 plus a torn prefix of frame 2
		garbage: bytes.Repeat([]byte{0xFF}, 64),
		snapshot: SnapshotResponse{
			Snapshot: snap, Offset: size, Records: records, Epoch: epoch,
		},
	}
	leader := httptest.NewServer(http.HandlerFunc(fl.handle))
	defer leader.Close()

	fdir := t.TempDir()
	freg, _, err := registry.Open(fdir, registry.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	f, err := StartFollower(FollowerConfig{
		LeaderURL: leader.URL, Registry: freg,
		CheckpointPath: filepath.Join(fdir, "replication.ckpt"),
		NodeID:         "n3", PollWait: 20 * time.Millisecond,
		Events: obs.NewEventSink(&events),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Torn tail: the follower applies the complete frame, parks on the
	// partial one, and reports lag — it must not resync or error out.
	waitFor(t, "first frame through torn tail", func() bool { return freg.Len() == 1 })
	time.Sleep(100 * time.Millisecond) // let it re-poll the torn tail a few times
	fl.mu.Lock()
	resyncsDuringTorn := fl.resyncs
	fl.mu.Unlock()
	if resyncsDuringTorn != 0 {
		t.Fatal("follower resynced on a torn tail instead of waiting it out")
	}
	if freg.Len() != 1 || f.CaughtUp() {
		t.Fatalf("torn tail: len=%d caughtUp=%v", freg.Len(), f.CaughtUp())
	}

	// The leader finishes its append: the remainder of frame 2 arrives.
	fl.setPhase(1)
	waitFor(t, "completed tail", func() bool { return freg.Len() == 2 && f.CaughtUp() })

	// Corrupt stream: undecodable bytes past the checkpoint force a
	// snapshot resync, which must not duplicate admissions.
	fl.setPhase(2)
	waitFor(t, "resync after corruption", func() bool {
		fl.mu.Lock()
		defer fl.mu.Unlock()
		return fl.resyncs > 0
	})
	waitFor(t, "catch-up after resync", func() bool { return f.CaughtUp() && f.Lag() == 0 })
	if freg.Len() != 2 {
		t.Fatalf("post-resync Len %d, want 2", freg.Len())
	}
	f.Close()

	jpath, _, _, _, _ := freg.ReplicationStatus()
	if err := freg.Close(); err != nil {
		t.Fatal(err)
	}
	admits := journalAdmits(t, jpath)
	for v, n := range admits {
		if n != 1 {
			t.Fatalf("version %s admitted %d times after resync", v, n)
		}
	}
	if len(admits) != 2 {
		t.Fatalf("follower journal admits %v, want v1+v2", admits)
	}
	if !strings.Contains(events.String(), "replica_resync") {
		t.Fatal("no replica_resync event emitted")
	}
}

func TestDistReplicationTailEndpoint(t *testing.T) {
	lreg, _, err := registry.Open(t.TempDir(), registry.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lreg.Close()
	if err := lreg.Add("v1", mkModel(t, 10), registry.Meta{}); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	MountReplication(mux, lreg)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	_, size, _, epoch, ok := lreg.ReplicationStatus()
	if !ok {
		t.Fatal("persistent registry reported not replicable")
	}

	get := func(url string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck // test
		return resp.StatusCode, buf.Bytes()
	}

	// Full journal from offset 0, byte-for-byte.
	status, body := get("/v1/replicate/tail?offset=0&wait_ms=0")
	if status != http.StatusOK {
		t.Fatalf("tail from 0: status %d", status)
	}
	lpath, _, _, _, _ := lreg.ReplicationStatus()
	disk, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, disk) {
		t.Fatal("tail bytes differ from journal file")
	}

	// Caught up: 204. Beyond the end or wrong epoch: 410. Garbage: 400.
	if status, _ = get(fmt.Sprintf("/v1/replicate/tail?offset=%d&wait_ms=0", size)); status != http.StatusNoContent {
		t.Fatalf("caught-up tail: status %d", status)
	}
	if status, _ = get("/v1/replicate/tail?offset=999999&wait_ms=0"); status != http.StatusGone {
		t.Fatalf("past-end tail: status %d", status)
	}
	if status, _ = get(fmt.Sprintf("/v1/replicate/tail?offset=0&epoch=%d&wait_ms=0", epoch+1)); status != http.StatusGone {
		t.Fatalf("wrong-epoch tail: status %d", status)
	}
	if status, _ = get("/v1/replicate/tail?offset=-1"); status != http.StatusBadRequest {
		t.Fatalf("negative offset: status %d", status)
	}

	// Snapshot coordinates line up with the tail's view.
	status, body = get("/v1/replicate/snapshot")
	if status != http.StatusOK {
		t.Fatalf("snapshot: status %d", status)
	}
	var sr SnapshotResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Offset != size || sr.Epoch != epoch {
		t.Fatalf("snapshot coords offset=%d epoch=%d, want %d/%d", sr.Offset, sr.Epoch, size, epoch)
	}
}

// TestDistPartitionOwnersPinned pins rendezvous ownership for a fixed
// 5-peer fleet over 1,000 machine IDs. Every node must agree on owners
// across versions too: a rolling upgrade that moved the score function
// would split the fleet's view of who serves which machine.
func TestDistPartitionOwnersPinned(t *testing.T) {
	var peers []Peer
	for i := 1; i <= 5; i++ {
		peers = append(peers, Peer{ID: fmt.Sprintf("n%d", i), Addr: fmt.Sprintf("127.0.0.1:%d", 9000+i)})
	}
	part, err := NewPartition("n1", peers)
	if err != nil {
		t.Fatal(err)
	}
	var owners strings.Builder
	for i := 0; i < 1000; i++ {
		owners.WriteString(part.Owner(fmt.Sprintf("rack%02d-m%04d", i%40, i)).ID)
	}
	h := fnv.New64a()
	h.Write([]byte(owners.String()))
	const want uint64 = 0xb3b36ae9644f5b1f
	if got := h.Sum64(); got != want {
		t.Fatalf("owner digest = %#x, want %#x: rendezvous scores moved", got, want)
	}
}
