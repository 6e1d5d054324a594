package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestControlBenchRunAndCheck: -control -quick closes the capping loop
// at two fleet sizes, holds the budgets against ground truth, and
// produces a reproducible document that -check accepts.
func TestControlBenchRunAndCheck(t *testing.T) {
	out := filepath.Join(t.TempDir(), "control.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-control", "-quick", "-out", out}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("chaos-bench -control exited %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc ControlDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != ControlSchema || !doc.ReproVerified || len(doc.Cells) != 2 {
		t.Fatalf("document malformed: schema=%q repro=%v cells=%d", doc.Schema, doc.ReproVerified, len(doc.Cells))
	}
	for _, c := range doc.Cells {
		if c.CompliancePct < 95 {
			t.Fatalf("%d machines: compliance %.2f%%", c.Machines, c.CompliancePct)
		}
		if c.ThroughputRetention < 0.80 || c.ThroughputRetention > 1 {
			t.Fatalf("%d machines: retention %v", c.Machines, c.ThroughputRetention)
		}
		if c.FreqActuations <= 0 || c.Decisions <= 0 || len(c.Digest) != 64 {
			t.Fatalf("bad cell: %+v", c)
		}
	}
	stdout.Reset()
	if code := realMain([]string{"-check", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("-check rejected fresh control doc: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "ok") {
		t.Fatalf("check output: %s", stdout.String())
	}
}

// TestControlBenchCheckRejectsBadDocs: schema drift, missing repro
// proof, low compliance, and throughput collapse all fail -check.
func TestControlBenchCheckRejectsBadDocs(t *testing.T) {
	dir := t.TempDir()
	digest := strings.Repeat("cd", 32)
	cell := func(n int, compliance, retention float64) ControlCell {
		return ControlCell{Machines: n, Budgets: 2, CompliancePct: compliance,
			ThroughputRetention: retention, Ticks: 20, Decisions: 100,
			FreqActuations: 10, DecisionsPerSec: 1000, SimSecondsPerSec: 100,
			Digest: digest}
	}
	cases := map[string]ControlDoc{
		"schema.json": {Schema: "chaos-bench-control/v0", ReproVerified: true,
			Cells: []ControlCell{cell(100, 100, 0.95), cell(1000, 100, 0.95)}},
		"repro.json": {Schema: ControlSchema,
			Cells: []ControlCell{cell(100, 100, 0.95), cell(1000, 100, 0.95)}},
		"violations.json": {Schema: ControlSchema, ReproVerified: true,
			Cells: []ControlCell{cell(100, 100, 0.95), cell(1000, 88, 0.95)}},
		"retention.json": {Schema: ControlSchema, ReproVerified: true,
			Cells: []ControlCell{cell(100, 100, 0.55), cell(1000, 100, 0.95)}},
		"onecell.json": {Schema: ControlSchema, ReproVerified: true,
			Cells: []ControlCell{cell(100, 100, 0.95)}},
		"idle.json": {Schema: ControlSchema, ReproVerified: true,
			Cells: []ControlCell{cell(100, 100, 0.95), func() ControlCell {
				c := cell(1000, 100, 0.95)
				c.FreqActuations = 0
				return c
			}()}},
	}
	for name, doc := range cases {
		data, _ := json.Marshal(doc)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-check", p}, &stdout, &stderr); code == 0 {
			t.Errorf("%s: -check accepted a bad control document", name)
		}
	}
}
