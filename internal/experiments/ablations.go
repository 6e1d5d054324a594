package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/sim"
	"repro/internal/trace"
)

// AblationMachineCount quantifies the abstract's scalability claim — the
// number of machines whose data must be pooled to reach a given error
// bound. For k = 1..Machines it trains the quadratic/cluster model on the
// first k machines of the training run and evaluates cluster DRE over all
// machines of the remaining runs.
func (s *Suite) AblationMachineCount(w io.Writer, platform, workload string) (map[int]float64, error) {
	ds, err := s.Dataset(platform)
	if err != nil {
		return nil, err
	}
	fr, err := s.Features(platform)
	if err != nil {
		return nil, err
	}
	traces := ds.ByWorkload[workload]
	spec := core.ClusterSpec(fr.Features)
	runs := trace.Runs(traces)
	byRun := trace.ByRun(traces)

	out := map[int]float64{}
	section(w, fmt.Sprintf("Ablation: machines sampled vs error bound (%s, %s)", platform, workload))
	for k := 1; k <= s.Cfg.Machines; k++ {
		var sums []metrics.Summary
		for _, trainRun := range runs {
			train := append([]*trace.Trace(nil), byRun[trainRun]...)
			sort.Slice(train, func(a, b int) bool { return train[a].MachineID < train[b].MachineID })
			if k < len(train) {
				train = train[:k]
			}
			cm, err := core.FitCluster(models.TechQuadratic, spec, train, 0)
			if err != nil {
				return nil, err
			}
			for _, testRun := range runs {
				if testRun == trainRun {
					continue
				}
				sum, err := core.ScoreRun(cm, byRun[testRun])
				if err != nil {
					return nil, err
				}
				sums = append(sums, sum)
			}
		}
		out[k] = metrics.Average(sums).DRE
		fmt.Fprintf(w, "%d machine(s) sampled -> cluster DRE %5.1f%%\n", k, out[k]*100)
	}
	return out, nil
}

// AblationLagWindow sweeps the frequency-history window (0 = none,
// 1 = the paper's MHz(t−1), larger = the Lewis-et-al-style window §VI
// discusses). The paper found historical frequency information did not
// significantly improve accuracy.
func (s *Suite) AblationLagWindow(w io.Writer, platform, workload string, windows []int) (map[int]float64, error) {
	if len(windows) == 0 {
		windows = []int{0, 1, 4}
	}
	ds, err := s.Dataset(platform)
	if err != nil {
		return nil, err
	}
	fr, err := s.Features(platform)
	if err != nil {
		return nil, err
	}
	traces := ds.ByWorkload[workload]
	out := map[int]float64{}
	section(w, fmt.Sprintf("Ablation: frequency-history window (%s, %s)", platform, workload))
	for _, win := range windows {
		spec := core.ClusterSpec(fr.Features)
		spec.LagWindow = win
		cv, err := core.CrossValidate(traces, core.CVConfig{Tech: models.TechQuadratic, Spec: spec})
		if err != nil {
			return nil, err
		}
		out[win] = cv.Cluster.DRE
		fmt.Fprintf(w, "window %d -> cluster DRE %5.1f%%\n", win, out[win]*100)
	}
	return out, nil
}

// CalibrationResult reports the calibration-training experiment.
type CalibrationResult struct {
	Platform string
	// PerWorkload maps workload name to cluster DRE when the model was
	// trained only on the calibration staircase.
	PerWorkload map[string]float64
	// WorkloadTrained maps workload name to the standard CV DRE for
	// comparison.
	WorkloadTrained map[string]float64
}

// CalibrationTraining trains the quadratic/cluster model on the synthetic
// calibration staircase alone and evaluates it on the real workloads —
// the "characterization phase" training mode the paper's §III sketches.
func (s *Suite) CalibrationTraining(w io.Writer, platform string) (*CalibrationResult, error) {
	ds, err := s.Dataset(platform)
	if err != nil {
		return nil, err
	}
	fr, err := s.Features(platform)
	if err != nil {
		return nil, err
	}
	spec := core.ClusterSpec(fr.Features)

	// Collect the calibration run on an identically-seeded cluster.
	calDS, err := core.Collect(platform, s.Cfg.Machines, []string{"Calibration"}, 1, s.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	cm, err := core.FitCluster(models.TechQuadratic, spec, calDS.ByWorkload["Calibration"], 0)
	if err != nil {
		return nil, err
	}

	res := &CalibrationResult{Platform: platform,
		PerWorkload: map[string]float64{}, WorkloadTrained: map[string]float64{}}
	section(w, fmt.Sprintf("Calibration-phase training (%s)", platform))
	for _, wl := range s.Cfg.Workloads {
		traces := ds.ByWorkload[wl]
		var sums []metrics.Summary
		for _, run := range trace.Runs(traces) {
			sum, err := core.ScoreRun(cm, trace.ByRun(traces)[run])
			if err != nil {
				return nil, err
			}
			sums = append(sums, sum)
		}
		res.PerWorkload[wl] = metrics.Average(sums).DRE
		best, err := s.Best(platform, wl)
		if err != nil {
			return nil, err
		}
		res.WorkloadTrained[wl] = best.CV.Cluster.DRE
		fmt.Fprintf(w, "%-10s calibration-trained DRE %5.1f%%  (workload-trained best %5.1f%%)\n",
			wl, res.PerWorkload[wl]*100, res.WorkloadTrained[wl]*100)
	}
	return res, nil
}

// AblationPerCoreFreq tests the §VI prediction that systems with
// independently clocked cores benefit from per-core frequency features:
// it compares the quadratic model using only core 0's frequency (the
// paper's proxy) against one with every core's frequency on a per-core
// DVFS platform.
func (s *Suite) AblationPerCoreFreq(w io.Writer, platform, workload string) (proxyDRE, perCoreDRE float64, err error) {
	ds, err := s.Dataset(platform)
	if err != nil {
		return 0, 0, err
	}
	fr, err := s.Features(platform)
	if err != nil {
		return 0, 0, err
	}
	traces := ds.ByWorkload[workload]

	base := core.ClusterSpec(fr.Features)
	cvBase, err := core.CrossValidate(traces, core.CVConfig{Tech: models.TechQuadratic, Spec: base})
	if err != nil {
		return 0, 0, err
	}
	proxyDRE = cvBase.Cluster.DRE

	spec, err := sim.Platform(platform)
	if err != nil {
		return 0, 0, err
	}
	extended := core.ClusterSpec(fr.Features)
	extended.Name = "cluster+percore"
	for c := 1; c < spec.Cores; c++ {
		name := fmt.Sprintf(`Processor Performance(%d)\Frequency MHz`, c)
		extended.Counters = ensureCounter(extended.Counters, name)
	}
	cvExt, err := core.CrossValidate(traces, core.CVConfig{Tech: models.TechQuadratic, Spec: extended})
	if err != nil {
		return 0, 0, err
	}
	perCoreDRE = cvExt.Cluster.DRE

	section(w, fmt.Sprintf("Ablation: core-0 frequency proxy vs per-core frequencies (%s, %s)", platform, workload))
	fmt.Fprintf(w, "core-0 proxy DRE %5.1f%%\nall-core DRE    %5.1f%%\n", proxyDRE*100, perCoreDRE*100)
	return proxyDRE, perCoreDRE, nil
}

// VariabilityStudy measures machine-to-machine power variation across a
// batch of identically-specified machines — the up-to-10% effect (§III-B,
// and Davis et al.'s EXERT study) that motivates Algorithm 1's pooling.
func VariabilityStudy(w io.Writer, platform string, nMachines int, seed int64) (idleSpread, maxSpread float64, err error) {
	spec, err := sim.Platform(platform)
	if err != nil {
		return 0, 0, err
	}
	if nMachines <= 1 {
		nMachines = 20
	}
	var idles, maxes []float64
	for i := 0; i < nMachines; i++ {
		m, err := sim.NewMachine(spec, fmt.Sprintf("v%d", i), mathx.DeriveSeed(seed, fmt.Sprintf("var%d", i)))
		if err != nil {
			return 0, 0, err
		}
		idles = append(idles, m.IdleWatts())
		// Drive to sustained full load and record the peak.
		peak := 0.0
		for t := 0; t < 40; t++ {
			_, _, p := m.Step(sim.Demand{
				CPU:            float64(spec.Cores) * 1.5,
				DiskReadBytes:  1e9,
				DiskWriteBytes: 1e9,
				DiskReadOps:    5000,
				DiskWriteOps:   5000,
				NetSendBytes:   1.25e8,
				NetRecvBytes:   1.25e8,
				MemTouchBytes:  1e10,
				WorkingSet:     4e9,
				RunningTasks:   spec.Cores,
			})
			if p.TrueWatts > peak {
				peak = p.TrueWatts
			}
		}
		maxes = append(maxes, peak)
	}
	spread := func(xs []float64) float64 {
		min, max := mathx.MinMax(xs)
		if min == 0 {
			return 0
		}
		return (max - min) / min
	}
	idleSpread, maxSpread = spread(idles), spread(maxes)
	section(w, fmt.Sprintf("Machine-to-machine variability (%d x %s)", nMachines, platform))
	fmt.Fprintf(w, "idle power spread %.1f%%, full-load spread %.1f%% (paper: up to 10%%)\n",
		idleSpread*100, maxSpread*100)
	return idleSpread, maxSpread, nil
}
