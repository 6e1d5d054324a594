package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/trace"
)

// Figure1Run summarizes one run's cluster power trace.
type Figure1Run struct {
	Workload        string
	Run             int
	Seconds         int
	MinW, MaxW, Avg float64
	EnergyWh        float64
	Series          []float64 // cluster power per second
}

// Figure1 reproduces the cluster power traces of the paper's Figure 1:
// every workload run on the mobile (Core2) cluster, with per-run dynamic
// ranges and ASCII sparklines. The paper's clusters swing roughly between
// 120 W and 220 W.
func (s *Suite) Figure1(w io.Writer, platform string) ([]Figure1Run, error) {
	if platform == "" {
		platform = "Core2"
	}
	ds, err := s.Dataset(platform)
	if err != nil {
		return nil, err
	}
	section(w, fmt.Sprintf("Figure 1: cluster power traces (%s, %d machines)", platform, s.Cfg.Machines))
	var out []Figure1Run
	for _, wl := range s.Cfg.Workloads {
		byRun := trace.ByRun(ds.ByWorkload[wl])
		for _, run := range trace.Runs(ds.ByWorkload[wl]) {
			series, err := clusterSeries(byRun[run])
			if err != nil {
				return nil, err
			}
			min, max := mathx.MinMax(series)
			r := Figure1Run{Workload: wl, Run: run, Seconds: len(series),
				MinW: min, MaxW: max, Avg: mathx.Mean(series),
				EnergyWh: metrics.EnergyWh(series), Series: series}
			out = append(out, r)
			fmt.Fprintf(w, "%-10s run %d  %4ds  [%6.1f, %6.1f] W  %5.1f Wh  %s\n",
				wl, run, r.Seconds, r.MinW, r.MaxW, r.EnergyWh, sparkline(series, 56))
		}
	}
	return out, nil
}

// clusterSeries sums aligned machine traces into the cluster power series.
func clusterSeries(ts []*trace.Trace) ([]float64, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("experiments: empty run")
	}
	n := ts[0].Len()
	out := make([]float64, n)
	for _, t := range ts {
		if t.Len() != n {
			return nil, fmt.Errorf("experiments: misaligned traces")
		}
		for i := 0; i < n; i++ {
			out[i] += t.Power[i]
		}
	}
	return out, nil
}

// sparkline renders a series as a fixed-width ASCII intensity strip.
func sparkline(series []float64, width int) string {
	if len(series) == 0 || width <= 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	min, max := mathx.MinMax(series)
	span := max - min
	if span == 0 {
		span = 1
	}
	var b strings.Builder
	for c := 0; c < width; c++ {
		lo := c * len(series) / width
		hi := (c + 1) * len(series) / width
		if hi <= lo {
			hi = lo + 1
		}
		v := mathx.Mean(series[lo:hi])
		g := int((v - min) / span * float64(len(glyphs)-1))
		if g < 0 {
			g = 0
		}
		if g > len(glyphs)-1 {
			g = len(glyphs) - 1
		}
		b.WriteRune(glyphs[g])
	}
	return b.String()
}

// Figure2 renders the feature-significance histogram with the selection
// threshold for one platform (paper Figure 2: the Opteron cluster).
func (s *Suite) Figure2(w io.Writer, platform string) (map[string]float64, float64, error) {
	if platform == "" {
		platform = "Opteron"
	}
	fr, err := s.Features(platform)
	if err != nil {
		return nil, 0, err
	}
	section(w, fmt.Sprintf("Figure 2: feature weighted-occurrence histogram (%s)", platform))
	type kv struct {
		name string
		w    float64
	}
	var hist []kv
	for f, wt := range fr.Histogram {
		hist = append(hist, kv{f, wt})
	}
	sort.Slice(hist, func(a, b int) bool {
		if hist[a].w != hist[b].w {
			return hist[a].w > hist[b].w
		}
		return hist[a].name < hist[b].name
	})
	fmt.Fprintf(w, "threshold = %.0f (raised from the initial value by cluster stepwise)\n", fr.Threshold)
	selected := map[string]bool{}
	for _, f := range fr.Features {
		selected[f] = true
	}
	shown := hist
	if len(shown) > 28 {
		shown = shown[:28]
	}
	for _, h := range shown {
		mark := " "
		if selected[h.name] {
			mark = "*"
		}
		fmt.Fprintf(w, "%s %-52s %5.1f %s\n", mark, truncate(h.name, 52), h.w,
			strings.Repeat("#", int(h.w)))
	}
	fmt.Fprintf(w, "(%d features with nonzero weight; '*' = in the final cluster set)\n", len(hist))
	return fr.Histogram, fr.Threshold, nil
}

// FigureGridRow is one bar of Figures 3/4: a technique+feature-set cell's
// fold-average cluster DRE.
type FigureGridRow struct {
	Technique models.Technique
	SpecLabel string
	DRE       float64
	Skipped   string
}

// FigureGrid renders the DRE-vs-model-complexity bar chart of Figures 3
// and 4 for the given platform and workload. Fig. 3 (PageRank) shows
// feature selection mattering most; Fig. 4 (Prime) shows modeling
// technique mattering most.
func (s *Suite) FigureGrid(w io.Writer, figure, platform, workload string) ([]FigureGridRow, error) {
	entries, err := s.Grid(platform, workload)
	if err != nil {
		return nil, err
	}
	section(w, fmt.Sprintf("%s: average cluster DRE by model and feature set (%s, %s)", figure, platform, workload))
	var rows []FigureGridRow
	for _, e := range entries {
		row := FigureGridRow{Technique: e.Tech, SpecLabel: e.Spec.Label(), Skipped: e.Skipped}
		if e.CV != nil {
			row.DRE = e.CV.Cluster.DRE
		}
		rows = append(rows, row)
		if e.Skipped != "" {
			fmt.Fprintf(w, "%-10s %-8s   (skipped: %s)\n", e.Tech, row.SpecLabel, e.Skipped)
			continue
		}
		fmt.Fprintf(w, "%-10s %-8s %6.1f%% %s\n", e.Tech, row.SpecLabel, row.DRE*100,
			strings.Repeat("#", int(row.DRE*200)))
	}
	return rows, nil
}

// Figure3 is the PageRank grid on the Opteron cluster.
func (s *Suite) Figure3(w io.Writer) ([]FigureGridRow, error) {
	return s.FigureGrid(w, "Figure 3", s.PickPlatform("Opteron"), s.PickWorkload("PageRank"))
}

// Figure4 is the Prime grid on the Opteron cluster.
func (s *Suite) Figure4(w io.Writer) ([]FigureGridRow, error) {
	return s.FigureGrid(w, "Figure 4", s.PickPlatform("Opteron"), s.PickWorkload("Prime"))
}

// PickPlatform returns preferred if configured, else the last configured
// platform (the most server-like in the canonical ordering).
func (s *Suite) PickPlatform(preferred string) string {
	if contains(s.Cfg.Platforms, preferred) {
		return preferred
	}
	return s.Cfg.Platforms[len(s.Cfg.Platforms)-1]
}

// PickWorkload returns preferred if configured, else the first configured
// workload.
func (s *Suite) PickWorkload(preferred string) string {
	if contains(s.Cfg.Workloads, preferred) {
		return preferred
	}
	return s.Cfg.Workloads[0]
}

// Figure5Result carries the worst-case trace comparison of paper Figure 5.
type Figure5Result struct {
	Platform, Workload string
	Model              core.Series // cluster quadratic model, general features
	Strawman           core.Series // scaled single-machine CPU-linear model
	ModelSummary       metrics.Summary
	StrawmanSummary    metrics.Summary
	// TopCoverage is the fraction of top-20%-of-range actual samples the
	// strawman under-predicts by more than 5% of the range; the paper's
	// point is that the linear strawman "does not predict the upper ~20%"
	// of the cluster power range.
	StrawmanTopMiss float64
	ModelTopMiss    float64
}

// Figure5 reproduces the worst-case full-system prediction comparison on
// the desktop (Athlon) cluster: the quadratic model with the general
// feature set tracks the whole dynamic range while the scaled CPU-linear
// single-machine strawman cannot reach the top of it.
func (s *Suite) Figure5(w io.Writer) (*Figure5Result, error) {
	// The paper's Fig. 5 is the desktop (Athlon) cluster; PageRank has
	// the most power variation and is the natural worst case.
	platform := s.PickPlatform("Athlon")
	workload := s.PickWorkload("PageRank")
	ds, err := s.Dataset(platform)
	if err != nil {
		return nil, err
	}
	gen, err := s.General()
	if err != nil {
		return nil, err
	}
	traces := ds.ByWorkload[workload]
	spec := core.GeneralSpec(gen)
	cfg := core.CVConfig{Tech: models.TechQuadratic, Spec: spec}

	// Find the worst fold of the quadratic/general model.
	cv, err := core.CrossValidate(traces, cfg)
	if err != nil {
		return nil, err
	}
	trainRun := cv.Folds[cv.WorstFold].TrainRun
	testRun := -1
	for _, r := range trace.Runs(traces) {
		if r != trainRun {
			testRun = r
			break
		}
	}
	model, err := core.PredictSeries(traces, cfg, trainRun, testRun)
	if err != nil {
		return nil, err
	}
	straw, err := core.StrawmanSeries(traces, trainRun, testRun)
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{Platform: platform, Workload: workload, Model: *model, Strawman: *straw}
	if res.ModelSummary, err = model.Summarize(ds.ClusterIdle); err != nil {
		return nil, err
	}
	if res.StrawmanSummary, err = straw.Summarize(ds.ClusterIdle); err != nil {
		return nil, err
	}
	res.ModelTopMiss = topMissFraction(model.Actual, model.Pred, ds.ClusterIdle)
	res.StrawmanTopMiss = topMissFraction(straw.Actual, straw.Pred, ds.ClusterIdle)

	section(w, fmt.Sprintf("Figure 5: worst-case cluster power prediction (%s, %s)", platform, workload))
	fmt.Fprintf(w, "actual   %s\n", sparkline(model.Actual, 64))
	fmt.Fprintf(w, "quad/gen %s  DRE %.1f%%\n", sparkline(model.Pred, 64), res.ModelSummary.DRE*100)
	fmt.Fprintf(w, "strawman %s  DRE %.1f%%\n", sparkline(straw.Pred, 64), res.StrawmanSummary.DRE*100)
	fmt.Fprintf(w, "top-of-range (upper 20%%) samples under-predicted by >5%% of range: model %.0f%%, strawman %.0f%%\n",
		res.ModelTopMiss*100, res.StrawmanTopMiss*100)
	return res, nil
}

// topMissFraction computes, over samples whose actual power lies in the
// top 20% of the dynamic range, the fraction the prediction misses low by
// more than 5% of the range.
func topMissFraction(actual, pred []float64, idle float64) float64 {
	_, pmax := mathx.MinMax(actual)
	rng := pmax - idle
	if rng <= 0 {
		return 0
	}
	cut := pmax - 0.2*rng
	var top, miss int
	for i := range actual {
		if actual[i] < cut {
			continue
		}
		top++
		if actual[i]-pred[i] > 0.05*rng {
			miss++
		}
	}
	if top == 0 {
		return 0
	}
	return float64(miss) / float64(top)
}
