package online

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// TestFaultPredictorSkipsNonFiniteSamples: a NaN/Inf sample is skipped
// and counted instead of propagating into the cluster estimate; the
// remaining machines still produce a finite sum.
func TestFaultPredictorSkipsNonFiniteSamples(t *testing.T) {
	fx := buildFixture(t, defaultSpec(), []string{"Prime"})
	p, err := NewPredictor(fx.model, fx.names)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default().Snapshot()["chaos_invalid_samples_total"]
	samples := samplesAt(fx.streams, 0)
	row := append([]float64(nil), samples[0].Counters...)
	row[1] = math.NaN()
	samples[0].Counters = row
	est, err := p.Step(samples)
	if err != nil {
		t.Fatalf("Step with one corrupt sample: %v", err)
	}
	if len(est.PerMachine) != len(samples)-1 {
		t.Fatalf("per-machine estimates = %d, want %d", len(est.PerMachine), len(samples)-1)
	}
	if _, ok := est.PerMachine[samples[0].MachineID]; ok {
		t.Error("corrupt machine present in the estimate")
	}
	if math.IsNaN(est.ClusterWatts) || math.IsInf(est.ClusterWatts, 0) {
		t.Fatalf("cluster estimate %g is not finite", est.ClusterWatts)
	}
	after := obs.Default().Snapshot()["chaos_invalid_samples_total"]
	if after <= before {
		t.Error("chaos_invalid_samples_total did not increase")
	}

	// Inf is rejected the same way.
	samples = samplesAt(fx.streams, 1)
	row = append([]float64(nil), samples[0].Counters...)
	row[0] = math.Inf(-1)
	samples[0].Counters = row
	if est, err = p.Step(samples); err != nil {
		t.Fatalf("Step with -Inf sample: %v", err)
	}
	if math.IsNaN(est.ClusterWatts) {
		t.Fatal("NaN leaked into the cluster estimate")
	}

	// All samples corrupt -> error, not a NaN estimate.
	samples = samplesAt(fx.streams, 2)
	for i := range samples {
		bad := append([]float64(nil), samples[i].Counters...)
		bad[0] = math.NaN()
		samples[i].Counters = bad
	}
	if _, err := p.Step(samples); err == nil {
		t.Error("expected error when every sample is non-finite")
	}
}
