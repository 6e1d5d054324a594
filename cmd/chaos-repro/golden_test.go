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

var update = flag.Bool("update", false, "rewrite the golden reports from the current code")

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

// TestReportGolden holds the whole report (every table, figure, ablation
// and study) byte for byte to its committed copy, in the reduced
// configuration (`chaos-repro -fast`, testdata/report_fast.txt) and the
// full one (`chaos-repro`, report_full.txt at the repository root, ~45 s
// on 2 vCPUs). Any change to the simulator, Algorithm 1, the model fits or
// cross-validation that moves a printed figure fails here. Both sides are
// compared with the collector-overhead figures masked. Regenerate
// deliberately with `go test ./cmd/chaos-repro -run Golden -update`, which
// writes each report as chaos-repro prints it.
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the reports take seconds to a minute")
	}
	for _, tc := range []struct {
		name string
		cfg  experiments.Config
		path string
	}{
		{"fast", experiments.Fast(), filepath.Join("testdata", "report_fast.txt")},
		{"full", experiments.Default(), filepath.Join("..", "..", "report_full.txt")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, tc.cfg, ""); err != nil {
				t.Fatalf("run: %v", err)
			}
			if *update {
				if err := os.WriteFile(tc.path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			diffReport(t, tc.path, maskOverhead(buf.String()), maskOverhead(string(want)))
		})
	}
}

// diffReport fails at the first line where got and want differ.
func diffReport(t *testing.T, path, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
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
