package models

import (
	"testing"

	"repro/internal/counters"
	"repro/internal/trace"
)

func TestFeatureImportanceRanksDrivers(t *testing.T) {
	// Power depends strongly on utilization, weakly on frequency (in this
	// synthetic trace freq varies but with a small coefficient).
	train := []*trace.Trace{powerTrace(t, "Core2", "m0", 0, 500, 61)}
	mm, err := FitMachineModel(TechQuadratic, train, clusterSpec(), FitOptions{MaxKnots: 8})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := FeatureImportance(mm, train)
	if err != nil {
		t.Fatalf("FeatureImportance: %v", err)
	}
	if len(imp) != 2 {
		t.Fatalf("importances = %d", len(imp))
	}
	// powerTrace: power = 20 + 0.2*util + 0.002*freq; util spans ~100
	// (swing 20 W), freq spans ~1460 (swing ~2.9 W).
	if imp[0].Feature != counters.CPUTotal {
		t.Errorf("top feature = %s, want utilization", imp[0].Feature)
	}
	if imp[0].Weight < imp[1].Weight*2 {
		t.Errorf("utilization weight %.2f should dominate frequency %.2f", imp[0].Weight, imp[1].Weight)
	}
	if imp[0].Weight < 10 || imp[0].Weight > 30 {
		t.Errorf("utilization swing %.2f W outside expected ~18 W", imp[0].Weight)
	}
}

func TestFeatureImportanceLagColumns(t *testing.T) {
	spec := clusterSpec()
	spec.LagWindow = 2
	train := []*trace.Trace{powerTrace(t, "Core2", "m0", 0, 400, 62)}
	mm, err := FitMachineModel(TechLinear, train, spec, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := FeatureImportance(mm, train)
	if err != nil {
		t.Fatal(err)
	}
	if len(imp) != 4 {
		t.Fatalf("importances = %d, want counters + 2 lags", len(imp))
	}
	found := map[string]bool{}
	for _, e := range imp {
		found[e.Feature] = true
	}
	if !found["MHz(t-1)"] || !found["MHz(t-2)"] {
		t.Errorf("lag columns unnamed: %+v", imp)
	}
}

func TestFeatureImportanceValidation(t *testing.T) {
	if _, err := FeatureImportance(nil, nil); err == nil {
		t.Error("expected error for nil model")
	}
	train := []*trace.Trace{powerTrace(t, "Core2", "m0", 0, 300, 63)}
	mm, err := FitMachineModel(TechLinear, train, clusterSpec(), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FeatureImportance(mm, nil); err == nil {
		t.Error("expected error for no traces")
	}
}

func TestUsedTerms(t *testing.T) {
	train := []*trace.Trace{powerTrace(t, "Core2", "m0", 0, 400, 64)}
	for _, tech := range Techniques() {
		opts := FitOptions{MaxKnots: 8}
		if tech == TechSwitching {
			opts.FreqCol = 1
		}
		mm, err := FitMachineModel(tech, train, clusterSpec(), opts)
		if err != nil {
			t.Fatalf("fit %s: %v", tech, err)
		}
		if n := UsedTerms(mm.Model); n <= 0 {
			t.Errorf("%s: UsedTerms = %d", tech, n)
		}
	}
}
