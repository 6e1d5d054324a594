package lifecycle

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/registry"
	"repro/internal/serve"
)

// TestRecoveryCheckpointRoundTrip marshals a populated orchestrator and
// restores it into a fresh one: retrain buffers, counters, and status
// must all survive the trip.
func TestRecoveryCheckpointRoundTrip(t *testing.T) {
	st := newStack(t, Config{}, serve.Config{Shards: 1})
	truth := func(a, b float64) float64 { return 10 + a + 2*b }
	for i := 0; i < 40; i++ {
		feedOne(t, st, i, truth)
	}
	data, err := st.orch.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{Names: testNames, Spec: models.FeatureSpec{Name: "test", Counters: testNames}}
	restored, err := New(st.reg, nopEngine{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCheckpoint(data); err != nil {
		t.Fatal(err)
	}
	was, now := st.orch.Status(), restored.Status()
	if now.State != "idle" || now.SnapshotsSinceRetrain != was.SnapshotsSinceRetrain ||
		restored.buf.snapshots() != st.orch.buf.snapshots() {
		t.Fatalf("restored status %+v, want to match %+v", now, was)
	}
	// The retrain buffers came back: both feeder machines hold their rows.
	for _, id := range []string{"f0", "f1"} {
		if got, want := buffered(restored.buf, id), buffered(st.orch.buf, id); got != want || got == 0 {
			t.Fatalf("machine %s restored %d buffered rows, want %d (nonzero)", id, got, want)
		}
	}
	// The restored buffers fit the same challenger as the original.
	var fits [2][]byte
	for k, o := range []*Orchestrator{st.orch, restored} {
		cm, err := fit(o.buf.copyRows(), testNames, models.TechLinear, cfg.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if fits[k], err = json.Marshal(cm); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(fits[0], fits[1]) {
		t.Fatalf("challenger fit diverged across restore:\n%s\n%s", fits[0], fits[1])
	}

	// Restore after Start must be refused.
	late, err := New(st.reg, nopEngine{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if err := late.Start(); err != nil {
		t.Fatal(err)
	}
	if err := late.RestoreCheckpoint(data); err == nil {
		t.Fatal("restore after Start accepted")
	}
	// Counter-order mismatch must be refused.
	other, err := New(st.reg, nopEngine{}, Config{
		Names: []string{"b", "a"},
		Spec:  models.FeatureSpec{Name: "test", Counters: []string{"b", "a"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreCheckpoint(data); err == nil {
		t.Fatal("counter-order mismatch accepted")
	}
}

// TestRecoveryRefusedRestoreLeavesState: a restore refused because the
// orchestrator already started must change nothing — its next checkpoint
// is byte for byte the one before the attempt.
func TestRecoveryRefusedRestoreLeavesState(t *testing.T) {
	cfg := Config{Names: testNames, Spec: models.FeatureSpec{Name: "test", Counters: testNames}}
	src, err := New(registry.New(), nopEngine{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayFeed(src, 0, 40)
	data := marshalCheckpoint(t, src)

	running, err := New(registry.New(), nopEngine{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer running.Close()
	replayFeed(running, 100, 103)
	if err := running.Start(); err != nil {
		t.Fatal(err)
	}
	before := marshalCheckpoint(t, running)
	if err := running.RestoreCheckpoint(data); err == nil {
		t.Fatal("restore after Start accepted")
	}
	if after := marshalCheckpoint(t, running); !bytes.Equal(after, before) {
		t.Errorf("a refused restore changed the checkpoint:\nbefore %.200s\nafter  %.200s", before, after)
	}
}

// nopEngine satisfies Engine for tests that drive no traffic.
type nopEngine struct{}

func (nopEngine) Drifted() bool                  { return false }
func (nopEngine) ResetDrift(float64) (p float64) { return 0 }

// TestRecoveryShadowResume checkpoints an orchestrator mid-shadow and
// restores it into a fresh stack over the same registry: it must resume
// shadowing with the live snapshots it had collected, and the rest of the
// live window must bring it to a verdict. Restored over a registry that
// lost the challenger, it must fall back to idle with the restore-shadow
// error rather than refuse to boot.
func TestRecoveryShadowResume(t *testing.T) {
	cfg := Config{}
	st := newStack(t, cfg, serve.Config{Shards: 2})
	lawB := func(a, b float64) float64 { return 40 + 3*a + 0.5*b }
	i := 0
	trainChallenger(t, st, &i, 60, lawB)
	for n := 0; n < 3; n++ {
		feedOne(t, st, i, lawB)
		i++
	}
	was := st.orch.Status()
	data, err := st.orch.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	st.srv.Close()

	st2 := startStack(t, st.reg, cfg, serve.Config{Shards: 2}, data)
	if s := st2.orch.Status(); s.State != "shadowing" || s.Challenger != was.Challenger ||
		s.LiveShadowSnapshots != 3 {
		t.Fatalf("restored status %+v, want shadowing %s with 3 live snapshots", s, was.Challenger)
	}
	final := driveUntil(t, st2, &i, lawB, liveSnapshots-3, "verdict after restore",
		func(s Status) bool { return s.State != "shadowing" })
	if final.LastVerdict != "promoted" || final.Retrains != 1 || final.LiveShadowSnapshots != 20 {
		t.Errorf("status %+v, want the restored challenger promoted on 20 live snapshots", final)
	}

	// Same checkpoint over a registry without the challenger: idle fallback.
	reg := registry.New()
	if err := reg.Add("v1", mkModel(t, 10, 1, 2), registry.Meta{}); err != nil {
		t.Fatal(err)
	}
	broken, err := New(reg, nopEngine{}, Config{
		Names: testNames,
		Spec:  models.FeatureSpec{Name: "test", Counters: testNames},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := broken.RestoreCheckpoint(data); err != nil {
		t.Fatal(err)
	}
	if s := broken.Status(); s.State != "idle" || !strings.HasPrefix(s.LastError, "restore-shadow: ") {
		t.Fatalf("status %+v, want idle with the restore-shadow error recorded", s)
	}
}

// TestRecoveryMidProbationResume is the headline lifecycle crash test:
// promote a challenger, checkpoint while it is mid-probation, tear the
// whole stack down (the crash), rebuild over the same registry, restore —
// the orchestrator must resume probation (not skip it), and when the
// workload turns hostile the resumed probation must still roll back.
func TestRecoveryMidProbationResume(t *testing.T) {
	cfg := Config{ProbationSnapshots: 60}
	scfg := serve.Config{Shards: 2, BaselineRMSE: 1}
	st := newStack(t, cfg, scfg)
	distB := func(a, b float64) float64 { return 40 + 3*a + 0.5*b }
	distC := func(a, b float64) float64 { return 10 + a + 2*b } // v1's law

	i := 0
	driveUntil(t, st, &i, distB, 500, "promotion",
		func(s Status) bool { return s.Promotions >= 1 && s.State == "probation" })
	promoted := st.reg.ActiveVersion()
	if promoted == "v1" {
		t.Fatal("expected a challenger to be active after promotion")
	}
	// Feed a little more good traffic so probation has accumulated
	// evidence worth preserving, then crash.
	for n := 0; n < 5; n++ {
		feedOne(t, st, i, distB)
		i++
	}
	data, err := st.orch.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	st.srv.Close()

	// The restart: fresh orchestrator and server over the surviving
	// registry, state restored from the checkpoint.
	st2 := startStack(t, st.reg, cfg, scfg, data)
	if s := st2.orch.Status(); s.State != "probation" {
		t.Fatalf("restored state %q, want probation (resume, not skip)", s.State)
	}

	// The workload reverts to v1's law: the promoted model is now wrong,
	// and the RESUMED probation must catch it and roll back.
	final := driveUntil(t, st2, &i, distC, 60, "rollback after restore",
		func(s Status) bool { return s.Rollbacks >= 1 })
	if active := st.reg.ActiveVersion(); active != "v1" {
		t.Errorf("active = %q after resumed-probation rollback, want v1", active)
	}
	if final.LastVerdict != "rolled_back" {
		t.Errorf("last verdict = %q, want rolled_back", final.LastVerdict)
	}
	// The pre-crash promotion is part of the restored history.
	if final.Promotions < 1 {
		t.Errorf("promotions = %d after restore, want the pre-crash promotion preserved", final.Promotions)
	}
}
