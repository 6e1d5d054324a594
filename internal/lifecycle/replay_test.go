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

// The replay fixture: an orchestrator with an 8-snapshot held-out window
// fed replayRecorded labeled snapshots from two machines. That wraps the
// held-out ring 260 times and each machine's 2,048-row retrain ring once,
// leaving both mid-lap. testdata/replay_checkpoint.json is its checkpoint
// and replayStatus the Status of an orchestrator restored from it, both
// recorded before the held-out window and the retrain buffers moved onto
// mathx.Ring; replayNextSHA256 is the digest of the checkpoint that
// restored orchestrator wrote after replayMore further snapshots.
const (
	replayRecorded   = 2085
	replayMore       = 13
	replayStatus     = `{"state":"idle","champion":"","retrains":0,"promotions":0,"rollbacks":0,"snapshots_since_retrain":2085,"held_out_snapshots":8,"live_shadow_snapshots":0,"probation_snapshots":0}`
	replayNextSHA256 = "fe2d5faf0f5dd305841d38ca80aa364b1cf4d54747838372b2eb7a3d9aa746fe"
)

func newReplayOrchestrator(t *testing.T) *Orchestrator {
	t.Helper()
	o, err := New(registry.New(), nopEngine{}, Config{
		Names:   testNames,
		Spec:    models.FeatureSpec{Name: "replay", Counters: testNames},
		HeldOut: 8,
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
