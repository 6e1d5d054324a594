package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/report_fast.txt from the current code")

// overheadFigure matches a collector-overhead percentage: the one figure in
// the report that is a wall-clock measurement rather than a function of the
// seed.
var overheadFigure = regexp.MustCompile(`[0-9]+\.[0-9]+%`)

// maskOverhead replaces the figures of the "Collector overhead" section with
// a fixed token, leaving every other byte of the report as printed.
func maskOverhead(report string) string {
	lines := strings.Split(report, "\n")
	in := false
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "Collector overhead"):
			in = true
		case l == "":
			in = false
		case in:
			lines[i] = overheadFigure.ReplaceAllString(l, "<wall-clock>")
		}
	}
	return strings.Join(lines, "\n")
}

// TestFastReportGolden holds the whole reduced report (every table, figure,
// ablation and study of `chaos-repro -fast`) byte for byte to
// testdata/report_fast.txt, so any change to the simulator, Algorithm 1, the
// model fits or cross-validation that moves a printed figure fails here.
// Regenerate deliberately with `go test ./cmd/chaos-repro -run Golden -update`.
func TestFastReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the reduced report takes seconds")
	}
	var buf bytes.Buffer
	if err := run(&buf, experiments.Fast(), ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := maskOverhead(buf.String())
	path := filepath.Join("testdata", "report_fast.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("report differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

func TestMaskOverheadTouchesOnlyItsSection(t *testing.T) {
	in := "DRE 3.0%\n\nCollector overhead (x)\n=====\nCore2     0.0010%\n\nDRE 4.6%\n"
	want := "DRE 3.0%\n\nCollector overhead (x)\n=====\nCore2     <wall-clock>\n\nDRE 4.6%\n"
	if got := maskOverhead(in); got != want {
		t.Fatalf("maskOverhead:\n got %q\nwant %q", got, want)
	}
}
