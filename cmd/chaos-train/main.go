// chaos-train builds a cluster power model from trace CSVs: it runs
// Algorithm 1 feature selection (unless an explicit feature list is
// given), fits the chosen technique on pooled training data, evaluates it
// with run-based cross-validation, and writes the model as JSON.
//
// Usage:
//
//	chaos-train -in traces/ -tech quadratic -out model.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/featsel"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	var (
		in       = flag.String("in", "traces", "directory of trace CSVs from chaos-collect")
		tech     = flag.String("tech", "quadratic", "technique: linear, piecewise, quadratic, switching")
		features = flag.String("features", "auto", `"auto" (Algorithm 1), "cpu-only", or a comma-separated counter list`)
		out      = flag.String("out", "model.json", "output model file")
		listen   = flag.String("listen", "", "serve /metrics, /healthz, and pprof on this address while training")
	)
	flag.Parse()
	if err := run(*in, *tech, *features, *out, *listen); err != nil {
		fmt.Fprintln(os.Stderr, "chaos-train:", err)
		os.Exit(1)
	}
}

func loadTraces(dir string) ([]*trace.Trace, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no trace CSVs in %s", dir)
	}
	var out []*trace.Trace
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		t, err := trace.ReadCSV(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, t)
	}
	return out, nil
}

func run(in, techName, features, out, listen string) error {
	if listen != "" {
		obs.RegisterBuildInfo(obs.Default())
		srv, err := obs.Serve(listen, obs.Default())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics listening on http://%s/metrics\n", srv.Addr())
	}
	span := obs.StartSpan("train.run")
	defer span.End()
	traces, err := loadTraces(in)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d traces (%s)\n", len(traces), in)

	var spec models.FeatureSpec
	switch features {
	case "auto":
		reg := counters.StandardRegistry()
		res, err := featsel.SelectCluster(traces, reg, featsel.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("Algorithm 1: %d -> %d -> %d -> %d features (threshold %.0f)\n",
			res.Funnel.Candidates, res.Funnel.AfterCorr, res.Funnel.AfterCoDep,
			res.Funnel.Final, res.Threshold)
		feats := res.Features
		if models.Technique(techName) == models.TechSwitching {
			feats = ensure(feats, counters.CPUFreqCore0)
		}
		spec = core.ClusterSpec(feats)
	case "cpu-only":
		spec = models.CPUOnlySpec()
	default:
		spec = core.ClusterSpec(strings.Split(features, ","))
	}
	fmt.Printf("features (%d): %s\n", len(spec.Counters), strings.Join(spec.Counters, "; "))

	cfg := core.CVConfig{Tech: models.Technique(techName), Spec: spec}
	cv, err := core.CrossValidate(traces, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("cross-validation: cluster DRE %.1f%%, rMSE %.2f W, machine median relative error %.2f%%\n",
		cv.Cluster.DRE*100, cv.Cluster.RMSE, cv.Machine.MedRelE*100)

	// Final model: fit on every run (deployment-style).
	byPlatform := map[string][]*trace.Trace{}
	for _, t := range traces {
		byPlatform[t.Platform] = append(byPlatform[t.Platform], trace.Subsample(t, 2))
	}
	var mms []*models.MachineModel
	for p, ts := range byPlatform {
		mm, err := models.FitMachineModel(models.Technique(techName), ts, spec,
			models.FitOptions{FreqCol: spec.FreqInputIndex(), MaxKnots: 8})
		if err != nil {
			return fmt.Errorf("platform %s: %w", p, err)
		}
		mms = append(mms, mm)
	}
	cm, err := models.NewClusterModel(mms...)
	if err != nil {
		return err
	}
	// Report each platform model's feature influence (watts of output
	// swing across the feature's observed range).
	for p, ts := range byPlatform {
		mm := cm.ByPlatform[p]
		imp, err := models.FeatureImportance(mm, ts)
		if err != nil {
			return err
		}
		fmt.Printf("feature influence (%s, %d terms):\n", p, models.UsedTerms(mm.Model))
		for _, e := range imp {
			fmt.Printf("  %6.2f W  %s\n", e.Weight, e.Feature)
		}
	}
	data, err := json.MarshalIndent(cm, "", "  ")
	if err != nil {
		return err
	}
	// Atomic replacement: a crash mid-write must never leave a truncated
	// model file where a previous good one stood.
	if err := store.WriteFileAtomic(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", out, len(data))
	return nil
}

func ensure(fs []string, name string) []string {
	for _, f := range fs {
		if f == name {
			return fs
		}
	}
	return append(fs, name)
}
