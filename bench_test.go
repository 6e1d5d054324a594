package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus micro-benchmarks for the online-path costs (collector
// sampling, model prediction) and ablation benches for the design choices
// DESIGN.md calls out.
//
// The table/figure benches run the Fast experiment configuration. The
// expensive trace collection is done once and shared (it is deterministic);
// each bench iteration then measures its own experiment's computation —
// feature selection, model grids, series prediction — from fresh caches.
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/experiments"
	"repro/internal/lifecycle"
	"repro/internal/models"
	"repro/internal/online"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

var (
	benchOnce sync.Once
	benchData map[string]*core.Dataset
)

// benchSuite returns a fresh Suite backed by the shared collected datasets.
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		s := experiments.NewSuite(experiments.Fast())
		for _, p := range s.Cfg.Platforms {
			if _, err := s.Dataset(p); err != nil {
				b.Fatalf("collecting %s: %v", p, err)
			}
		}
		benchData = s.Datasets()
	})
	s := experiments.NewSuite(experiments.Fast())
	s.SeedDatasets(benchData)
	return s
}

// BenchmarkFigure1 regenerates the cluster power trace summaries (paper
// Fig. 1), including the underlying trace collection.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.Figure1(io.Discard, s.Cfg.Platforms[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII regenerates the per-cluster and general feature sets
// (paper Table II): the full Algorithm 1 run for every platform.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.TableII(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the feature-significance histogram (paper
// Fig. 2): Algorithm 1 on the server-class cluster.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, _, err := s.Figure2(io.Discard, s.PickPlatform("Opteron")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII regenerates the rMSE / %Err / DRE comparison (paper
// Table III) for the first configured platform.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.TableIII(io.Discard, s.Cfg.Platforms[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates the model x feature-set DRE grid for the
// network-heavy workload (paper Fig. 3).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.Figure3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the grid for the CPU-bound workload (paper
// Fig. 4).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.Figure4(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIV regenerates the best-model search over every workload
// and cluster (paper Table IV) — the heaviest experiment.
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.TableIV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates the worst-case trace comparison against the
// scaled CPU-linear strawman (paper Fig. 5).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.Figure5(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeterogeneous regenerates the mixed-cluster composability
// experiment (paper §V-B), including collecting the mixed cluster.
func BenchmarkHeterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.Heterogeneous(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiWorkload regenerates the single multi-workload cluster
// model evaluation (the paper's Fig. 1 premise).
func BenchmarkMultiWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.MultiWorkload(io.Discard, s.Cfg.Platforms[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPooling measures the pooled-vs-single-machine fitting
// comparison.
func BenchmarkAblationPooling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, _, err := s.AblationPooling(io.Discard, s.Cfg.Platforms[0], s.Cfg.Workloads[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCorrThreshold sweeps Algorithm 1's correlation
// threshold.
func BenchmarkAblationCorrThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.AblationCorrThreshold(io.Discard, s.Cfg.Platforms[0], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorOverhead measures the per-sample cost of expanding the
// full ~250-counter vector — the online collection path whose cost the
// paper bounds below 1% of a mobile-class CPU at 1 Hz.
func BenchmarkCollectorOverhead(b *testing.B) {
	reg := counters.StandardRegistry()
	col := telemetry.NewCollector(reg, 1)
	sig := counters.Signals{}
	for _, d := range reg.Defs {
		if d.Kind == counters.KindSignal {
			sig[d.Signal] = 42
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := col.Sample(sig); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	frac := col.OverheadFraction(time.Second)
	b.ReportMetric(frac*100, "%of-1Hz-interval")
	if frac >= 0.01 {
		b.Fatalf("collector overhead %.4f exceeds the paper's 1%% bound", frac)
	}
}

// BenchmarkOnlinePredict measures one second of online cluster power
// prediction: building the model inputs from counter rows and evaluating
// the quadratic model for every machine.
func BenchmarkOnlinePredict(b *testing.B) {
	s := benchSuite(b)
	p := s.Cfg.Platforms[0]
	ds, err := s.Dataset(p)
	if err != nil {
		b.Fatal(err)
	}
	fr, err := s.Features(p)
	if err != nil {
		b.Fatal(err)
	}
	wl := s.Cfg.Workloads[0]
	traces := ds.ByWorkload[wl]
	spec := core.ClusterSpec(fr.Features)
	var train []*trace.Trace
	for _, t := range trace.ByRun(traces)[0] {
		train = append(train, trace.Subsample(t, 2))
	}
	mm, err := models.FitMachineModel(models.TechQuadratic, train, spec, models.FitOptions{MaxKnots: 8})
	if err != nil {
		b.Fatal(err)
	}
	cm, err := models.NewClusterModel(mm)
	if err != nil {
		b.Fatal(err)
	}
	test := trace.ByRun(traces)[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cm.PredictCluster(test); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationRun measures executing one full workload run on a
// 5-machine cluster (scheduling, machine dynamics, counter expansion,
// metering), reporting the simulated-to-real time ratio.
func BenchmarkSimulationRun(b *testing.B) {
	c, err := telemetry.New("Opteron", 5, 3)
	if err != nil {
		b.Fatal(err)
	}
	job, err := workloads.Build("Prime", 5)
	if err != nil {
		b.Fatal(err)
	}
	simSeconds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traces, err := c.RunJob(job, i, 1200)
		if err != nil {
			b.Fatal(err)
		}
		simSeconds += traces[0].Len() * len(traces)
	}
	b.StopTimer()
	if e := b.Elapsed().Seconds(); e > 0 {
		b.ReportMetric(float64(simSeconds)/e, "sim-machine-seconds/s")
	}
}

// BenchmarkShadowScore measures scoring one contender over a 256-snapshot
// window of a 4-machine cluster with lifecycle.ScoreWindow, the replay a
// shadow verdict runs per contender.
func BenchmarkShadowScore(b *testing.B) {
	names := []string{"a", "b", "c"}
	mm := &models.MachineModel{
		Platform: "Core2",
		Spec:     models.FeatureSpec{Name: "bench", Counters: names},
		Model:    &models.Linear{Intercept: 20, Coef: []float64{2, 0.5, 1}},
	}
	cm, err := models.NewClusterModel(mm)
	if err != nil {
		b.Fatal(err)
	}
	win := make([]lifecycle.Snapshot, 256)
	for i := range win {
		samples := make([]online.Sample, 4)
		var actual float64
		for m := range samples {
			row := []float64{float64((i + m) % 37), float64((i * 5) % 23), float64((i * 11) % 17)}
			samples[m] = online.Sample{
				MachineID: "m" + string(rune('0'+m)),
				Platform:  "Core2",
				Counters:  row,
			}
			actual += 20 + 2*row[0] + 0.5*row[1] + row[2]
		}
		win[i] = lifecycle.Snapshot{Samples: samples, Actual: actual}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := lifecycle.ScoreWindow(cm, names, win)
		if err != nil {
			b.Fatal(err)
		}
		if sc.N != len(win) {
			b.Fatalf("scored %d of %d snapshots", sc.N, len(win))
		}
	}
}
