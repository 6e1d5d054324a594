package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/store"
)

// lagGauge reports how many leader journal records this node has not yet
// applied — the replication-health headline (0 = fully caught up).
var lagGauge = obs.Default().Gauge("chaos_replication_lag_records", nil)

// followerRetry spaces failed leader calls: the jittered exponential
// backoff the fault-aware collectors use, from 50 ms with jitter 0.5.
var followerRetry = faults.RetryPolicy{BackoffMS: 50, Jitter: 0.5}

// FollowerConfig wires a replication follower to its leader.
type FollowerConfig struct {
	// LeaderURL is the leader's serve base URL ("http://host:port").
	LeaderURL string
	// Registry is this node's own persistent registry; replicated records
	// apply through its journaled mutation path.
	Registry *registry.Registry
	// CheckpointPath persists the tail position so a restarted follower
	// resumes without re-fetching (or re-applying) history.
	CheckpointPath string
	// Seed feeds the deterministic jitter of the backoff between failed
	// leader calls (followerRetry).
	Seed int64
	// NodeID keys this follower's jitter stream (decorrelated from other
	// followers of the same leader).
	NodeID string
	// PollWait is the long-poll window per tail request (default 1s).
	PollWait time.Duration
	// Events, when set, receives replica_synced / replica_caught_up /
	// replica_resync events.
	Events *obs.EventSink
}

// checkpoint is the durable tail position. Applied counts records applied
// from the current epoch's journal; the offset is a byte position.
type checkpoint struct {
	Offset  int64 `json:"offset"`
	Epoch   int   `json:"epoch"`
	Applied int   `json:"applied"`
}

// Follower tails the leader's registry journal and applies each record
// idempotently. Ordering is the crash-safety story: records apply (each
// one fsynced into the follower's own journal) before the checkpoint
// advances, so a kill -9 between the two re-fetches an already-applied
// batch — and idempotent apply turns the replay into a no-op.
type Follower struct {
	cfg    FollowerConfig
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu            sync.Mutex
	ck            checkpoint
	leaderRecords int
	caughtUp      bool
}

// StartFollower loads any existing checkpoint and begins tailing in the
// background. Callers own Close.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.LeaderURL == "" || cfg.Registry == nil || cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("dist: follower needs a leader URL, a registry, and a checkpoint path")
	}
	if !cfg.Registry.Persistent() {
		return nil, fmt.Errorf("dist: follower registry must be persistent")
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{cfg: cfg, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	if data, err := os.ReadFile(cfg.CheckpointPath); err == nil {
		if err := json.Unmarshal(data, &f.ck); err != nil {
			// A corrupt checkpoint is not fatal: resync rebuilds it.
			f.ck = checkpoint{}
		}
	}
	go f.run()
	return f, nil
}

// Close stops the tail loop and waits for it to exit.
func (f *Follower) Close() {
	f.cancel()
	<-f.done
}

// Lag returns how many leader records are not yet applied (0 when caught
// up; the count is against the leader's last reported journal state).
func (f *Follower) Lag() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	lag := f.leaderRecords - f.ck.Applied
	if lag < 0 {
		lag = 0
	}
	return lag
}

// CaughtUp reports whether the last tail found nothing left to apply.
func (f *Follower) CaughtUp() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.caughtUp
}

// run is the tail loop: poll, apply, checkpoint, back off on failure.
func (f *Follower) run() {
	defer close(f.done)
	attempt := 0
	for {
		if f.ctx.Err() != nil {
			return
		}
		err := f.tailOnce()
		if err == nil {
			attempt = 0
			continue
		}
		if f.ctx.Err() != nil {
			return
		}
		// Jittered exponential backoff, exponent capped so a long leader
		// outage cannot push the retry horizon out indefinitely.
		attempt++
		k := attempt
		if k > 6 {
			k = 6
		}
		backoff := time.Duration(followerRetry.BackoffFor(f.cfg.Seed, f.cfg.NodeID, k) * float64(time.Millisecond))
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(backoff):
		}
	}
}

// tailOnce performs one tail round trip and applies its records.
func (f *Follower) tailOnce() error {
	f.mu.Lock()
	ck := f.ck
	f.mu.Unlock()

	url := fmt.Sprintf("%s/v1/replicate/tail?offset=%d&epoch=%d&wait_ms=%d",
		f.cfg.LeaderURL, ck.Offset, ck.Epoch, f.cfg.PollWait.Milliseconds())
	ctx, cancel := context.WithTimeout(f.ctx, f.cfg.PollWait+10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	leaderRecords, _ := strconv.Atoi(resp.Header.Get(HeaderRecords))
	switch resp.StatusCode {
	case http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, tailChunkBytes+1))
		if err != nil {
			return err
		}
		return f.applyChunk(body, leaderRecords)
	case http.StatusNoContent:
		f.setCaughtUp(leaderRecords)
		return nil
	case http.StatusGone:
		return f.resync()
	default:
		return fmt.Errorf("dist: tail %s: status %d", f.cfg.LeaderURL, resp.StatusCode)
	}
}

// applyChunk decodes and applies one tail response. A partial trailing
// frame (the leader's in-flight append) is left for the next poll; a
// corrupt frame or an un-applicable record means this follower's view
// has diverged and forces a snapshot resync.
func (f *Follower) applyChunk(body []byte, leaderRecords int) error {
	payloads, consumed, err := store.DecodeFrames(body)
	if err != nil {
		// Corrupt bytes mid-stream: do not guess at frame boundaries.
		return f.resync()
	}
	applied := 0
	for _, p := range payloads {
		if _, err := f.cfg.Registry.ApplyReplicated(p); err != nil {
			return f.resync()
		}
		applied++
	}
	if applied == 0 && consumed == 0 {
		// Nothing decodable yet (a lone partial frame — the leader's
		// in-flight or torn append). Wait out the tail instead of
		// hot-polling the same bytes; the next poll re-reads a longer
		// prefix, or a restarted leader truncates the torn frame away.
		select {
		case <-f.ctx.Done():
		case <-time.After(tailPollInterval):
		}
		return nil
	}

	f.mu.Lock()
	f.ck.Offset += int64(consumed)
	f.ck.Applied += applied
	ck := f.ck
	f.mu.Unlock()
	// Checkpoint strictly after apply: the records are already durable in
	// the follower's own journal, so losing the checkpoint write merely
	// re-applies a no-op batch after restart.
	if err := f.writeCheckpoint(ck); err != nil {
		return err
	}
	f.setCaughtUp(leaderRecords)
	return nil
}

// resync re-bootstraps from a leader snapshot — the recovery path for
// compactions, torn leader journals, and any stream divergence. Apply is
// idempotent, so resyncing on top of existing state never duplicates.
func (f *Follower) resync() error {
	f.emit("replica_resync", nil)
	ctx, cancel := context.WithTimeout(f.ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.LeaderURL+"/v1/replicate/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: snapshot %s: status %d", f.cfg.LeaderURL, resp.StatusCode)
	}
	var sr SnapshotResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return err
	}
	if err := f.cfg.Registry.ApplySnapshot(sr.Snapshot); err != nil {
		return err
	}
	ck := checkpoint{Offset: sr.Offset, Epoch: sr.Epoch, Applied: sr.Records}
	f.mu.Lock()
	f.ck = ck
	f.mu.Unlock()
	if err := f.writeCheckpoint(ck); err != nil {
		return err
	}
	f.emit("replica_synced", map[string]any{
		"offset": sr.Offset, "epoch": sr.Epoch,
		"active": f.cfg.Registry.ActiveVersion(), "versions": f.cfg.Registry.Len(),
	})
	f.setCaughtUp(sr.Records)
	return nil
}

// setCaughtUp refreshes lag accounting and fires replica_caught_up on
// the behind -> current transition.
func (f *Follower) setCaughtUp(leaderRecords int) {
	f.mu.Lock()
	f.leaderRecords = leaderRecords
	lag := leaderRecords - f.ck.Applied
	if lag < 0 {
		lag = 0
	}
	was := f.caughtUp
	f.caughtUp = lag == 0
	transition := f.caughtUp && !was
	f.mu.Unlock()
	lagGauge.Set(float64(lag))
	if transition {
		f.emit("replica_caught_up", map[string]any{
			"active": f.cfg.Registry.ActiveVersion(), "versions": f.cfg.Registry.Len(),
		})
	}
}

// writeCheckpoint persists the tail position atomically.
func (f *Follower) writeCheckpoint(ck checkpoint) error {
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(f.cfg.CheckpointPath, data, 0o644)
}

func (f *Follower) emit(event string, fields map[string]any) {
	if f.cfg.Events == nil {
		return
	}
	if fields == nil {
		fields = map[string]any{}
	}
	fields["leader"] = f.cfg.LeaderURL
	f.cfg.Events.Emit(event, fields) //nolint:errcheck // telemetry only
}
