package online

import (
	"math"
	"testing"
)

// degradedFixture builds a predictor + degraded wrapper over the shared
// two-machine Core2 fixture.
func degradedFixture(t *testing.T) (*fixture, *DegradedPredictor, []string) {
	t.Helper()
	fx := buildFixture(t, defaultSpec(), []string{"Prime"})
	p, err := NewPredictor(fx.model, fx.names)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(fx.streams))
	for i, tr := range fx.streams {
		ids[i] = tr.MachineID
	}
	dp, err := NewDegradedPredictor(p, ids)
	if err != nil {
		t.Fatal(err)
	}
	return fx, dp, ids
}

// TestFaultDegradedTransitions walks one machine through the full health
// cycle — live -> stale (held with decay) -> down (zero contribution) ->
// recovered — and checks coverage and the cluster sum at every stage.
func TestFaultDegradedTransitions(t *testing.T) {
	const ttl = staleTTLSeconds
	fx, dp, ids := degradedFixture(t)
	lost, kept := ids[0], ids[1]

	// Warm up with full coverage.
	var lastFull *DegradedEstimate
	for sec := 0; sec < 5; sec++ {
		est, err := dp.Step(sec, samplesAt(fx.streams, sec))
		if err != nil {
			t.Fatal(err)
		}
		if est.Coverage != 1 {
			t.Fatalf("full-sample coverage = %g", est.Coverage)
		}
		for _, id := range ids {
			if est.Health[id] != HealthLive {
				t.Fatalf("machine %s health %s with samples flowing", id, est.Health[id])
			}
		}
		lastFull = est
	}
	base := lastFull.PerMachine[lost]

	// Silence machine 0: held with decay while inside the TTL.
	for sec := 5; sec <= 4+ttl; sec++ {
		est, err := dp.Step(sec, samplesAt(fx.streams[1:], sec))
		if err != nil {
			t.Fatal(err)
		}
		if est.Health[lost] != HealthStale {
			t.Fatalf("t=%d: lost machine health %s, want stale", sec, est.Health[lost])
		}
		if est.Health[kept] != HealthLive {
			t.Fatalf("t=%d: surviving machine health %s", sec, est.Health[kept])
		}
		if est.Coverage != 0.5 {
			t.Fatalf("t=%d: coverage %g, want 0.5", sec, est.Coverage)
		}
		age := float64(sec - 4)
		want := base * math.Pow(decayPerSecond, age)
		if math.Abs(est.PerMachine[lost]-want) > 1e-9 {
			t.Fatalf("t=%d: held estimate %g, want %g (decay^%g)", sec, est.PerMachine[lost], want, age)
		}
		if est.PerMachine[kept] <= 0 {
			t.Fatalf("t=%d: surviving machine estimate %g", sec, est.PerMachine[kept])
		}
	}

	// Past the TTL: down, contributing zero — the cluster estimate is
	// exactly the surviving machine.
	for sec := 5 + ttl; sec < 8+ttl; sec++ {
		est, err := dp.Step(sec, samplesAt(fx.streams[1:], sec))
		if err != nil {
			t.Fatal(err)
		}
		if est.Health[lost] != HealthDown {
			t.Fatalf("t=%d: lost machine health %s, want down", sec, est.Health[lost])
		}
		if est.PerMachine[lost] != 0 {
			t.Fatalf("t=%d: down machine contributes %g", sec, est.PerMachine[lost])
		}
		if math.Abs(est.ClusterWatts-est.PerMachine[kept]) > 1e-9 {
			t.Fatalf("t=%d: cluster %g != surviving machine %g", sec, est.ClusterWatts, est.PerMachine[kept])
		}
	}

	// Recovery: a fresh sample flips the machine straight back to live.
	rec := 8 + ttl
	est, err := dp.Step(rec, samplesAt(fx.streams, rec))
	if err != nil {
		t.Fatal(err)
	}
	if est.Health[lost] != HealthLive {
		t.Fatalf("recovered machine health %s, want live", est.Health[lost])
	}
	if est.Coverage != 1 {
		t.Fatalf("post-recovery coverage %g", est.Coverage)
	}
}

// TestFaultDegradedImputation corrupts single counters and checks they
// are imputed from history: health reports imputed, the estimate stays
// finite and close to the clean prediction.
func TestFaultDegradedImputation(t *testing.T) {
	fx, dp, ids := degradedFixture(t)
	// Build imputation history.
	for sec := 0; sec < imputeWindow; sec++ {
		if _, err := dp.Step(sec, samplesAt(fx.streams, sec)); err != nil {
			t.Fatal(err)
		}
	}
	// Clean reference at t=8.
	cleanSamples := samplesAt(fx.streams, 8)
	clean, err := dp.Step(8, cleanSamples)
	if err != nil {
		t.Fatal(err)
	}
	// Same second replayed at t=9 with one counter of machine 0 NaN and
	// one +Inf: must be imputed, not propagated.
	corrupt := samplesAt(fx.streams, 8)
	row := append([]float64(nil), corrupt[0].Counters...)
	row[0] = math.NaN()
	row[len(row)-1] = math.Inf(1)
	corrupt[0].Counters = row
	est, err := dp.Step(9, corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if est.Health[ids[0]] != HealthImputed {
		t.Fatalf("corrupt machine health %s, want imputed", est.Health[ids[0]])
	}
	if est.Health[ids[1]] != HealthLive {
		t.Fatalf("clean machine health %s, want live", est.Health[ids[1]])
	}
	if est.Coverage != 1 {
		t.Fatalf("coverage %g with all machines reporting", est.Coverage)
	}
	if !finite(est.ClusterWatts) {
		t.Fatalf("imputed estimate is not finite: %g", est.ClusterWatts)
	}
	// Imputed from an 8-second median ending at the same workload phase,
	// so the estimate should be near the clean one.
	diff := math.Abs(est.PerMachine[ids[0]] - clean.PerMachine[ids[0]])
	if diff > 0.25*clean.PerMachine[ids[0]] {
		t.Fatalf("imputed estimate %g too far from clean %g",
			est.PerMachine[ids[0]], clean.PerMachine[ids[0]])
	}
}

// TestFaultDegradedNeverNaN floods the wrapper with corrupt and missing
// samples from the start (no history to impute from) and checks every
// estimate stays finite.
func TestFaultDegradedNeverNaN(t *testing.T) {
	fx, dp, _ := degradedFixture(t)
	for sec := 0; sec < staleTTLSeconds+5; sec++ {
		samples := samplesAt(fx.streams, sec)
		// Machine 0: all-NaN counters. Machine 1: absent entirely.
		bad := make([]float64, len(samples[0].Counters))
		for j := range bad {
			bad[j] = math.NaN()
		}
		samples[0].Counters = bad
		est, err := dp.Step(sec, samples[:1])
		if err != nil {
			t.Fatal(err)
		}
		if !finite(est.ClusterWatts) {
			t.Fatalf("t=%d: non-finite cluster estimate %g", sec, est.ClusterWatts)
		}
		if est.Coverage != 0 {
			t.Fatalf("t=%d: coverage %g with no usable samples", sec, est.Coverage)
		}
	}
}

// TestFaultDegradedEmptyStep: an empty sample slice is valid in degraded
// mode — everything goes stale and then down instead of erroring.
func TestFaultDegradedEmptyStep(t *testing.T) {
	fx, dp, ids := degradedFixture(t)
	if _, err := dp.Step(0, samplesAt(fx.streams, 0)); err != nil {
		t.Fatal(err)
	}
	est, err := dp.Step(1, nil)
	if err != nil {
		t.Fatalf("empty step errored: %v", err)
	}
	for _, id := range ids {
		if est.Health[id] != HealthStale {
			t.Fatalf("machine %s health %s after one silent second", id, est.Health[id])
		}
	}
	est, err = dp.Step(2+staleTTLSeconds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.ClusterWatts != 0 {
		t.Fatalf("cluster estimate %g with every machine down", est.ClusterWatts)
	}
}

// TestFaultDegradedValidation covers constructor and Step error paths.
func TestFaultDegradedValidation(t *testing.T) {
	fx := buildFixture(t, defaultSpec(), []string{"Prime"})
	p, err := NewPredictor(fx.model, fx.names)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDegradedPredictor(nil, []string{"a"}); err == nil {
		t.Error("expected error for nil predictor")
	}
	if _, err := NewDegradedPredictor(p, nil); err == nil {
		t.Error("expected error for empty machine set")
	}
	if _, err := NewDegradedPredictor(p, []string{"a", "a"}); err == nil {
		t.Error("expected error for duplicate machine IDs")
	}
	dp, err := NewDegradedPredictor(p, []string{fx.streams[0].MachineID})
	if err != nil {
		t.Fatal(err)
	}
	bogus := samplesAt(fx.streams, 0)
	bogus[0].MachineID = "not-in-cluster"
	if _, err := dp.Step(0, bogus[:1]); err == nil {
		t.Error("expected error for unknown machine sample")
	}
}
