package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// tinyCfg keeps the repro binary's test fast: one platform, one workload.
func tinyCfg() experiments.Config {
	return experiments.Config{
		Machines: 2, Runs: 2, Seed: 99,
		Platforms: []string{"Core2"},
		Workloads: []string{"Prime"},
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, tinyCfg(), "table1"); err != nil {
		t.Fatalf("run table1: %v", err)
	}
	if !strings.Contains(sb.String(), "Table I") {
		t.Error("missing Table I output")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run(io.Discard, tinyCfg(), "table9000")
	if err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
	// The error names every id run accepts, the three without a paper
	// table or figure number included.
	want := []string{"table1", "fig1", "table2", "fig2", "table3", "fig3", "fig4", "table4", "fig5",
		"multiworkload", "generality", "hetero", "overhead", "ablations", "calibration", "sensitivity", "variability"}
	for _, id := range want {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %q", err, id)
		}
	}
	if len(steps) != len(want) {
		t.Errorf("%d experiments, want %d", len(steps), len(want))
	}
}

func TestRunFigureExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiments in -short mode")
	}
	var sb strings.Builder
	for _, id := range []string{"fig1", "fig2", "overhead", "variability"} {
		if err := run(&sb, tinyCfg(), id); err != nil {
			t.Fatalf("run %s: %v", id, err)
		}
	}
	out := sb.String()
	for _, want := range []string{"Figure 1", "Figure 2", "Collector overhead", "variability"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}
