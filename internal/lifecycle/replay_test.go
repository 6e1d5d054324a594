package lifecycle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/models"
	"repro/internal/online"
	"repro/internal/registry"
)

// The replay fixture: an orchestrator fed replayRecorded labeled
// snapshots from two machines. That wraps each machine's 2,048-row retrain
// ring once, leaving it mid-lap. testdata/replay_checkpoint.json is its
// checkpoint and replayStatus the Status of an orchestrator restored from
// it; replayNextSHA256 is the digest of the checkpoint that restored
// orchestrator wrote after replayMore further snapshots.
// testdata/heldout_checkpoint.json is the same feed's checkpoint in the
// earlier format, which also carried a held-out scoring window.
const (
	replayRecorded   = 2085
	replayMore       = 13
	replayStatus     = `{"state":"idle","champion":"","retrains":0,"promotions":0,"rollbacks":0,"snapshots_since_retrain":2085,"live_shadow_snapshots":0,"probation_snapshots":0}`
	replayNextSHA256 = "884a259107754e4445a67f5966c09c7b8f091d8d8f2a01ccb4231ad3647ea726"
)

func newReplayOrchestrator(t *testing.T) *Orchestrator {
	t.Helper()
	o, err := New(registry.New(), nopEngine{}, Config{
		Names: testNames,
		Spec:  models.FeatureSpec{Name: "replay", Counters: testNames},
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// replayFeed ingests snapshots [from, to). Counters and watts are small
// integers so the checkpoint stays compact.
func replayFeed(o *Orchestrator, from, to int) {
	for i := from; i < to; i++ {
		samples := []online.Sample{
			{MachineID: "r0", Platform: "P", Counters: []float64{float64(i % 7), float64(i % 11)}},
			{MachineID: "r1", Platform: "P", Counters: []float64{float64(i % 5), float64(i % 13)}},
		}
		o.Ingest(samples, []float64{float64(50 + i%17), float64(60 + i%19)}, 0, "")
	}
}

func marshalCheckpoint(t *testing.T, o *Orchestrator) []byte {
	t.Helper()
	data, err := o.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointReplay replays the recorded checkpoint byte for byte: the
// same feed reproduces it, restoring it gives the recorded Status and
// writes it back unchanged, and the restored orchestrator's next
// checkpoint matches both the recorded digest and an orchestrator that
// ingested every snapshot without a restart.
func TestCheckpointReplay(t *testing.T) {
	recorded, err := os.ReadFile("testdata/replay_checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	fed := newReplayOrchestrator(t)
	replayFeed(fed, 0, replayRecorded)
	if got := marshalCheckpoint(t, fed); !bytes.Equal(got, recorded) {
		t.Fatalf("feeding %d snapshots wrote a checkpoint of %d bytes that differs from the recorded %d bytes",
			replayRecorded, len(got), len(recorded))
	}

	restored := newReplayOrchestrator(t)
	if err := restored.RestoreCheckpoint(recorded); err != nil {
		t.Fatal(err)
	}
	status, err := json.Marshal(restored.Status())
	if err != nil {
		t.Fatal(err)
	}
	if string(status) != replayStatus {
		t.Errorf("restored status\n%s\nwant\n%s", status, replayStatus)
	}
	if got := marshalCheckpoint(t, restored); !bytes.Equal(got, recorded) {
		t.Fatal("the restored orchestrator's checkpoint differs from the one it was restored from")
	}

	replayFeed(restored, replayRecorded, replayRecorded+replayMore)
	replayFeed(fed, replayRecorded, replayRecorded+replayMore)
	next := marshalCheckpoint(t, restored)
	if !bytes.Equal(next, marshalCheckpoint(t, fed)) {
		t.Error("after a restore the next checkpoint differs from an uninterrupted orchestrator's")
	}
	sum := sha256.Sum256(next)
	if got := hex.EncodeToString(sum[:]); got != replayNextSHA256 {
		t.Errorf("next checkpoint digest %s, want %s", got, replayNextSHA256)
	}
}

// TestCheckpointRestoresHeldOutFormat restores the feed's checkpoint as the
// earlier format wrote it, held-out window and all: the retrain buffers
// come back whole, so the restored orchestrator writes the same
// "retrainer" section byte for byte, and so does the current format.
func TestCheckpointRestoresHeldOutFormat(t *testing.T) {
	old, err := os.ReadFile("testdata/heldout_checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	restored := newReplayOrchestrator(t)
	if err := restored.RestoreCheckpoint(old); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"r0", "r1"} {
		if n := buffered(restored.buf, id); n != bufferCapacity {
			t.Errorf("machine %s restored %d buffered rows, want %d", id, n, bufferCapacity)
		}
	}
	if s := restored.Status(); s.State != "idle" || s.SnapshotsSinceRetrain != replayRecorded {
		t.Errorf("restored status %+v, want idle with %d snapshots since the last retrain", s, replayRecorded)
	}
	retrainer := func(data []byte) []byte {
		t.Helper()
		var doc struct {
			Retrainer json.RawMessage `json:"retrainer"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Retrainer
	}
	want := retrainer(old)
	if got := retrainer(marshalCheckpoint(t, restored)); !bytes.Equal(got, want) {
		t.Error("the restored retrain buffers differ from the checkpoint's")
	}
	current, err := os.ReadFile("testdata/replay_checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(retrainer(current), want) {
		t.Error("the two formats checkpoint the same feed's retrain buffers differently")
	}
}
