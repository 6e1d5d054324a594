package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/overload"
)

// TestOverloadBenchRunAndCheck: -overload -quick drives a pinned-capacity
// engine at two load multiples, protects the interactive tier at the top
// one, and produces a reproducible document that -check accepts.
func TestOverloadBenchRunAndCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load replay")
	}
	out := filepath.Join(t.TempDir(), "overload.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-overload", "-quick", "-out", out}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("chaos-bench -overload exited %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc OverloadDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != OverloadSchema || !doc.ReproVerified || len(doc.Cells) != 2 {
		t.Fatalf("document malformed: schema=%q repro=%v cells=%d", doc.Schema, doc.ReproVerified, len(doc.Cells))
	}
	if doc.CapacityPerSec != overloadCapacity() {
		t.Fatalf("capacity %d, want pinned %d", doc.CapacityPerSec, overloadCapacity())
	}
	for _, c := range doc.Cells {
		if c.Inversions != 0 {
			t.Fatalf("%dx load: %d priority-inversion ticks", c.LoadX, c.Inversions)
		}
		if len(c.Digest) != 64 || len(c.Tiers) != overload.NumPriorities {
			t.Fatalf("bad cell: %+v", c)
		}
	}
	stdout.Reset()
	if code := realMain([]string{"-check", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("-check rejected fresh overload doc: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "ok") {
		t.Fatalf("check output: %s", stdout.String())
	}
}

// TestOverloadBenchCheckRejectsBadDocs: schema drift (v1 and v2 included),
// missing repro proof, inversion ticks, a top cell below 5x, inverted
// survival rates, a cell whose offered rate is not its load multiple of
// capacity, and an under-driven cell all fail -check.
func TestOverloadBenchCheckRejectsBadDocs(t *testing.T) {
	dir := t.TempDir()
	digest := strings.Repeat("ab", 32)
	cell := func(loadX int, interOK, backOK int) OverloadCell {
		return OverloadCell{
			LoadX: loadX, OfferedPS: 800 * loadX, AchievedPS: 790 * float64(loadX),
			Snapshots: 1600, Shed: 100,
			Tiers: []TierCell{
				{Priority: "interactive", Sent: 200, OK: interOK, P50Ms: 10, P99Ms: 40},
				{Priority: "batch", Sent: 600, OK: 300, P50Ms: 10, P99Ms: 60},
				{Priority: "background", Sent: 800, OK: backOK, P50Ms: 10, P99Ms: 80},
			},
			Digest: digest,
		}
	}
	good := func() OverloadDoc {
		return OverloadDoc{Schema: OverloadSchema, CapacityPerSec: 800, ReproVerified: true,
			Cells: []OverloadCell{cell(1, 200, 790), cell(5, 190, 80)}}
	}
	cases := map[string]OverloadDoc{
		"schema.json": func() OverloadDoc { d := good(); d.Schema = "chaos-bench-overload/v0"; return d }(),
		"v1.json":     func() OverloadDoc { d := good(); d.Schema = "chaos-bench-overload/v1"; return d }(),
		"v2.json":     func() OverloadDoc { d := good(); d.Schema = "chaos-bench-overload/v2"; return d }(),
		"repro.json":  func() OverloadDoc { d := good(); d.ReproVerified = false; return d }(),
		"onecell.json": {Schema: OverloadSchema, CapacityPerSec: 800, ReproVerified: true,
			Cells: []OverloadCell{cell(5, 190, 80)}},
		"inversion.json": func() OverloadDoc { d := good(); d.Cells[1].Inversions = 3; return d }(),
		"lightload.json": {Schema: OverloadSchema, CapacityPerSec: 800, ReproVerified: true,
			Cells: []OverloadCell{cell(1, 200, 790), cell(2, 190, 80)}},
		"noprotection.json": func() OverloadDoc {
			d := good()
			// Background survives at a higher rate than interactive.
			d.Cells[1] = cell(5, 20, 700)
			return d
		}(),
		"noshed.json": func() OverloadDoc { d := good(); d.Cells[1].Shed = 0; return d }(),
		"mislabeled.json": func() OverloadDoc {
			d := good()
			// Labeled 5x but offering 15x: snapshots/s read as samples/s.
			d.Cells[1].OfferedPS, d.Cells[1].AchievedPS = 12000, 11800
			return d
		}(),
		"underdriven.json": func() OverloadDoc {
			d := good()
			// 48% of the 5x target, the way the v1 document's top cell ran.
			d.Cells[1].AchievedPS = 0.48 * 4000
			return d
		}(),
	}
	for name, doc := range cases {
		data, _ := json.Marshal(doc)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-check", p}, &stdout, &stderr); code == 0 {
			t.Errorf("%s: -check accepted a bad overload document", name)
		}
	}
	// The good document itself must pass, or the rejections above prove
	// nothing.
	data, _ := json.Marshal(good())
	p := filepath.Join(dir, "good.json")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-check", p}, &stdout, &stderr); code != 0 {
		t.Errorf("-check rejected the control-group good document: %s", stderr.String())
	}
}
