package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRequiresOneMode: no mode, or more than one, is a usage error
// (exit 2) rather than a run of whichever mode the code checks first.
func TestCLIRequiresOneMode(t *testing.T) {
	cases := map[string][]string{
		"none":              {},
		"quick only":        {"-quick"},
		"control+overload":  {"-control", "-overload"},
		"cluster+control":   {"-cluster", "-control", "-quick"},
		"check+cluster":     {"-check", "BENCH_cluster.json", "-cluster"},
		"stray argument":    {"-cluster", "extra"},
		"deleted grid flag": {"-cluster", "-sim-seconds", "120"},
	}
	for name, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
		if !strings.Contains(stderr.String(), "Usage") {
			t.Errorf("%s: no usage on stderr: %q", name, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: ran something: %q", name, stdout.String())
		}
	}
}

// TestCheckRejectsUnknownSchema: -check names a schema it has no
// validator for, the retired serving schema included, rather than
// validating the document against some other schema's contract.
func TestCheckRejectsUnknownSchema(t *testing.T) {
	dir := t.TempDir()
	for _, schema := range []string{"chaos-bench/v1", ""} {
		p := filepath.Join(dir, "doc.json")
		if err := os.WriteFile(p, []byte(`{"schema": "`+schema+`", "cells": []}`), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-check", p}, &stdout, &stderr); code != 1 {
			t.Errorf("schema %q: exit %d, want 1", schema, code)
		}
		if want := `unknown schema "` + schema + `"`; !strings.Contains(stderr.String(), want) {
			t.Errorf("schema %q: stderr %q does not name it", schema, stderr.String())
		}
	}
}

// TestCommittedBenchDocsPass runs -check on every committed BENCH_*.json
// at the repository root, so a document that no longer passes its own
// schema's checks cannot land. A copy whose repro_verified flag is
// cleared must fail, which shows each document is really validated.
func TestCommittedBenchDocsPass(t *testing.T) {
	for _, mode := range []string{"cluster", "control", "overload"} {
		path := filepath.Join("..", "..", "BENCH_"+mode+".json")
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-check", path}, &stdout, &stderr); code != 0 {
			t.Errorf("%s: -check exit %d: %s", path, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), ": ok") {
			t.Errorf("%s: -check printed %q, want an ok line", path, stdout.String())
		}

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		const verified = `"repro_verified": true`
		if strings.Count(string(data), verified) != 1 {
			t.Fatalf("%s: want exactly one %s", path, verified)
		}
		bad := filepath.Join(t.TempDir(), "BENCH_"+mode+".json")
		corrupted := strings.Replace(string(data), verified, `"repro_verified": false`, 1)
		if err := os.WriteFile(bad, []byte(corrupted), 0o644); err != nil {
			t.Fatal(err)
		}
		stdout.Reset()
		stderr.Reset()
		if code := realMain([]string{"-check", bad}, &stdout, &stderr); code != 1 {
			t.Errorf("%s with repro_verified cleared: -check exit %d, want 1", mode, code)
		}
	}
}

// TestCommittedBenchDigestsReproduce reruns the 100- and 1,000-machine
// cells of the committed cluster and control documents at their recorded
// seed and length. Each digest must come out identical, and so must every
// deterministic field recorded beside it, so a committed document cannot
// drift from the simulator and controller that run today. Rates, wall
// times and allocation counts depend on the host and are not compared.
func TestCommittedBenchDigestsReproduce(t *testing.T) {
	readDoc := func(mode string, doc any) {
		data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+mode+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, doc); err != nil {
			t.Fatal(err)
		}
	}

	var cluster ClusterDoc
	readDoc("cluster", &cluster)
	for _, want := range cluster.Cells {
		if want.Machines > 1000 {
			continue
		}
		got, err := runClusterCell(want.Machines, cluster.Seed, cluster.SimSeconds)
		if err != nil {
			t.Fatal(err)
		}
		got.EventsPerSec, got.SimSecondsPerSec, got.AllocsPerEvent, got.WallMS =
			want.EventsPerSec, want.SimSecondsPerSec, want.AllocsPerEvent, want.WallMS
		if got != want {
			t.Errorf("cluster %d machines:\n got %+v\nwant %+v", want.Machines, got, want)
		}
	}

	var control ControlDoc
	readDoc("control", &control)
	if control.IntervalS != ctlIntervalS || control.BudgetFraction != ctlBudgetFraction {
		t.Fatalf("control document ran at interval %d s and budget %v, the bench now at %d s and %v",
			control.IntervalS, control.BudgetFraction, ctlIntervalS, ctlBudgetFraction)
	}
	reg, err := controlRegistry(control.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range control.Cells {
		if want.Machines > 1000 {
			continue
		}
		got, err := runControlCell(want.Machines, control.Seed, control.SimSeconds, reg)
		if err != nil {
			t.Fatal(err)
		}
		got.DecisionsPerSec, got.SimSecondsPerSec, got.WallMS = want.DecisionsPerSec, want.SimSecondsPerSec, want.WallMS
		if got != want {
			t.Errorf("control %d machines:\n got %+v\nwant %+v", want.Machines, got, want)
		}
	}
}
