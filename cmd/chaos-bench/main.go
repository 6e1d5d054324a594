// chaos-bench writes the three benchmark documents that perfbench (the
// repo's benchmark, see BENCHMARK.json and perfbench/NOTES.md) does not
// cover, each as schema-versioned JSON meant to be committed, so
// performance changes show up in review diffs instead of anecdotes:
//
//   - -cluster: how fast the event-driven datacenter simulator runs a
//     heterogeneous fleet of 100, 1,000 and 20,000 machines
//     (BENCH_cluster.json);
//   - -control: how well the model-predictive capping loop holds rack
//     budgets against ground truth at the same sizes (BENCH_control.json);
//   - -overload: per-priority goodput when a pinned-capacity engine is
//     offered 1x, 2x and 5x its capacity (BENCH_overload.json).
//
// Every mode reruns its first cell and records repro_verified only when
// the rerun reproduces the cell's digest. -check validates a document
// against the contract of the schema it names.
//
// Usage:
//
//	chaos-bench -cluster                           # writes BENCH_cluster.json
//	chaos-bench -overload -quick -out /tmp/o.json  # CI smoke: reduced grid
//	chaos-bench -check BENCH_control.json          # validate an existing file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out          = fs.String("out", "", "write the benchmark document here (default BENCH_<mode>.json)")
		check        = fs.String("check", "", "validate an existing benchmark document and exit")
		quick        = fs.Bool("quick", false, "reduced grid for CI smoke runs")
		seed         = fs.Int64("seed", 7, "simulation seed (fixes every replayed workload)")
		clusterMode  = fs.Bool("cluster", false, "benchmark the event-driven datacenter simulator")
		controlMode  = fs.Bool("control", false, "benchmark the model-predictive power-capping loop")
		overloadMode = fs.Bool("overload", false, "benchmark priority goodput under overload")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	modes := 0
	for _, on := range []bool{*check != "", *clusterMode, *controlMode, *overloadMode} {
		if on {
			modes++
		}
	}
	if modes != 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "chaos-bench: give exactly one of -cluster, -control, -overload or -check FILE")
		fs.Usage()
		return 2
	}

	// Each mode's grid is fixed, so every committed document measures the
	// same cells; -quick keeps the two smallest fleets (the lightest and
	// the heaviest load) for a shorter run.
	var err error
	switch {
	case *check != "":
		err = checkDoc(*check, stdout)
	case *clusterMode:
		sizes, simSeconds := []int{100, 1000, 20000}, int64(3600)
		if *quick {
			sizes, simSeconds = sizes[:2], 300
		}
		err = runClusterBench(stdout, outPath(*out, "BENCH_cluster.json"), *seed, sizes, simSeconds)
	case *controlMode:
		sizes, simSeconds := []int{100, 1000, 20000}, int64(1200)
		if *quick {
			sizes, simSeconds = sizes[:2], 300
		}
		err = runControlBench(stdout, outPath(*out, "BENCH_control.json"), *seed, sizes, simSeconds)
	case *overloadMode:
		loads, seconds := []int{1, 2, 5}, 4
		if *quick {
			loads, seconds = []int{1, 5}, 2
		}
		err = runOverloadBench(stdout, outPath(*out, "BENCH_overload.json"), *seed, loads, seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "chaos-bench:", err)
		return 1
	}
	return 0
}

func outPath(out, def string) string {
	if out == "" {
		return def
	}
	return out
}

// writeDoc writes doc as indented JSON with a trailing newline.
func writeDoc(out string, doc any) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// checkDoc validates a benchmark document against the contract of the
// schema its schema field names. CI runs it against both the committed
// documents and fresh -quick output.
func checkDoc(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	switch probe.Schema {
	case ClusterSchema:
		return checkClusterDoc(path, data, w)
	case ControlSchema:
		return checkControlDoc(path, data, w)
	case OverloadSchema:
		return checkOverloadDoc(path, data, w)
	}
	return fmt.Errorf("%s: unknown schema %q, want %s, %s or %s",
		path, probe.Schema, ClusterSchema, ControlSchema, OverloadSchema)
}
