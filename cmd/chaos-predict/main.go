// chaos-predict applies a trained cluster power model (chaos-train) to new
// trace CSVs, printing the per-second cluster power prediction and, since
// the traces carry metered power, the achieved accuracy — the online
// prediction path of the CHAOS framework.
//
// Usage:
//
//	chaos-predict -model model.json -in traces/ [-run 0] [-series]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/trace"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stderr))
}

// realMain is main minus os.Exit, so tests can assert the exit code and
// the shape of the error output. A bad -model must produce exactly one
// clear stderr line and exit 1, never a panic or stack trace.
func realMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos-predict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelPath = fs.String("model", "model.json", "model JSON from chaos-train")
		in        = fs.String("in", "traces", "directory of trace CSVs")
		run       = fs.Int("run", -1, "restrict to one run number (-1 = all)")
		series    = fs.Bool("series", false, "print the per-second prediction series")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := doPredict(*modelPath, *in, *run, *series); err != nil {
		// One line, no stack: strip any embedded newlines a wrapped error
		// might carry.
		msg := strings.ReplaceAll(err.Error(), "\n", " ")
		fmt.Fprintln(stderr, "chaos-predict:", msg)
		return 1
	}
	return 0
}

func doPredict(modelPath, in string, runFilter int, printSeries bool) error {
	data, err := os.ReadFile(modelPath)
	if err != nil {
		return fmt.Errorf("loading model: %w", err)
	}
	var cm models.ClusterModel
	if err := json.Unmarshal(data, &cm); err != nil {
		return fmt.Errorf("model file %s is not a valid cluster model: %w", modelPath, err)
	}
	if err := cm.Validate(); err != nil {
		return fmt.Errorf("model file %s failed validation: %w", modelPath, err)
	}
	paths, err := filepath.Glob(filepath.Join(in, "*.csv"))
	if err != nil {
		return err
	}
	var traces []*trace.Trace
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		t, err := trace.ReadCSV(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if runFilter >= 0 && t.Run != runFilter {
			continue
		}
		traces = append(traces, t)
	}
	if len(traces) == 0 {
		return fmt.Errorf("no matching traces in %s", in)
	}
	var all []metrics.Summary
	for _, run := range trace.Runs(traces) {
		runTraces := trace.ByRun(traces)[run]
		sum, err := core.ScoreRun(&cm, runTraces)
		if err != nil {
			return err
		}
		all = append(all, sum)
		fmt.Printf("run %d: %d samples, cluster DRE %.1f%%, rMSE %.2f W, worst error %.2f W\n",
			run, sum.N, sum.DRE*100, sum.RMSE, sum.MaxErr)
		if printSeries {
			pred, actual, err := cm.PredictCluster(runTraces)
			if err != nil {
				return err
			}
			for i := range pred {
				fmt.Printf("%6d  pred %8.2f W  actual %8.2f W\n", i, pred[i], actual[i])
			}
		}
	}
	avg := metrics.Average(all)
	fmt.Printf("overall: cluster DRE %.1f%%, rMSE %.2f W, %%Err %.2f%%\n",
		avg.DRE*100, avg.RMSE, avg.PctErr*100)
	return nil
}
