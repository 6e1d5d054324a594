package featsel

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/counters"
	"repro/internal/trace"
)

// miniRegistry builds a small counter namespace with the structure
// Algorithm 1 must handle: real signals, a correlated shadow, a
// co-dependent sum, noise, and a constant.
//
// Layout:
//
//	0 util      (real driver of power)
//	1 freq      (real driver of power)
//	2 shadow    (scaled copy of util -> step 1 removes)
//	3 partA     (real driver, small)
//	4 partB     (irrelevant)
//	5 sum       (= partA + partB -> step 2 removes)
//	6 noise0
//	7 noise1
//	8 constant
func miniRegistry() *counters.Registry {
	r := counters.NewRegistry()
	r.Add(counters.Def{Name: "util", Category: counters.CatProcessor, Kind: counters.KindSignal, Signal: "util"})
	r.Add(counters.Def{Name: "freq", Category: counters.CatProcessorPerf, Kind: counters.KindSignal, Signal: "freq"})
	r.Add(counters.Def{Name: "shadow", Category: counters.CatProcess, Kind: counters.KindScaled, Sources: []int{0}, Scale: 2})
	r.Add(counters.Def{Name: "partA", Category: counters.CatPhysicalDisk, Kind: counters.KindSignal, Signal: "partA"})
	r.Add(counters.Def{Name: "partB", Category: counters.CatPhysicalDisk, Kind: counters.KindSignal, Signal: "partB"})
	r.Add(counters.Def{Name: "sum", Category: counters.CatPhysicalDisk, Kind: counters.KindSum, Sources: []int{3, 4}})
	r.Add(counters.Def{Name: "noise0", Category: counters.CatOther, Kind: counters.KindNoise, Scale: 1})
	r.Add(counters.Def{Name: "noise1", Category: counters.CatOther, Kind: counters.KindNoise, Scale: 1})
	r.Add(counters.Def{Name: "constant", Category: counters.CatOther, Kind: counters.KindConstant, Offset: 7})
	return r
}

// miniTrace generates one machine's trace over the mini registry: power is
// a nonlinear function of util/freq plus a small partA effect, with
// machine-specific gain.
func miniTrace(t *testing.T, machine string, run int, n int, seed int64, gain float64) *trace.Trace {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	names := []string{"util", "freq", "shadow", "partA", "partB", "sum", "noise0", "noise1", "constant"}
	b := trace.NewBuilder("Mini", "W", machine, run, names, 20)
	for i := 0; i < n; i++ {
		util := r.Float64() * 100
		freq := []float64{800, 1600, 2260}[r.Intn(3)]
		partA := r.Float64() * 50
		partB := r.Float64() * 50
		row := []float64{
			util, freq, 2*util + r.NormFloat64()*0.01,
			partA, partB, partA + partB,
			r.NormFloat64(), r.NormFloat64(), 7,
		}
		power := 20 + gain*(0.15*util*(freq/2260)+0.05*partA) + r.NormFloat64()*0.15
		if err := b.Add(row, power, power); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func miniTraces(t *testing.T, runs, perRun int) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, m := range []struct {
		id   string
		gain float64
	}{{"m0", 1.0}, {"m1", 1.05}, {"m2", 0.95}} {
		for run := 0; run < runs; run++ {
			out = append(out, miniTrace(t, m.id, run, perRun, int64(run*31)+int64(len(m.id))+int64(m.gain*100), m.gain))
		}
	}
	return out
}

func TestSelectClusterMini(t *testing.T) {
	traces := miniTraces(t, 2, 400)
	res, err := SelectCluster(traces, miniRegistry(), Options{})
	if err != nil {
		t.Fatalf("SelectCluster: %v", err)
	}
	has := func(name string) bool {
		for _, f := range res.Features {
			if f == name {
				return true
			}
		}
		return false
	}
	if !has("util") || !has("freq") {
		t.Errorf("true drivers missing from %v", res.Features)
	}
	if has("sum") {
		t.Errorf("co-dependent aggregate survived: %v", res.Features)
	}
	if has("shadow") && has("util") {
		// Correlation pruning keeps the first of the pair.
		t.Errorf("correlated shadow survived alongside util: %v", res.Features)
	}
	if has("constant") {
		t.Errorf("constant counter survived: %v", res.Features)
	}
	if has("noise0") || has("noise1") {
		t.Errorf("noise counters survived: %v", res.Features)
	}
	// Funnel must be monotonically narrowing.
	f := res.Funnel
	if f.Candidates != 9 || f.AfterConstant >= f.Candidates || f.AfterCorr > f.AfterConstant ||
		f.AfterCoDep > f.AfterCorr || f.Final > f.AfterCoDep {
		t.Errorf("funnel not narrowing: %+v", f)
	}
	if len(res.Histogram) == 0 {
		t.Error("empty histogram")
	}
	if res.Threshold < 2 {
		t.Errorf("threshold = %v", res.Threshold)
	}
}

func TestSelectClusterDeterminism(t *testing.T) {
	a, err := SelectCluster(miniTraces(t, 2, 300), miniRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectCluster(miniTraces(t, 2, 300), miniRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Features, b.Features) {
		t.Errorf("non-deterministic selection: %v vs %v", a.Features, b.Features)
	}
}

// TestSelectClusterSameAtAnyParallelism runs the per-group steps on one
// goroutine and on four: the result, histogram weights included, must be
// the same bit for bit, since groups merge in group order.
func TestSelectClusterSameAtAnyParallelism(t *testing.T) {
	traces := miniTraces(t, 2, 300)
	var results []*Result
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := SelectCluster(traces, miniRegistry(), Options{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("GOMAXPROCS 1: %+v\nGOMAXPROCS 4: %+v", results[0], results[1])
	}
}

func TestSelectClusterValidation(t *testing.T) {
	if _, err := SelectCluster(nil, miniRegistry(), Options{}); err == nil {
		t.Error("expected error for no traces")
	}
	tr := miniTrace(t, "m0", 0, 50, 1, 1)
	tr.Names = tr.Names[:3]
	tr.X = tr.X.SelectCols([]int{0, 1, 2})
	if _, err := SelectCluster([]*trace.Trace{tr}, miniRegistry(), Options{}); err == nil {
		t.Error("expected error for registry mismatch")
	}
}

func TestGeneralFeatureSet(t *testing.T) {
	reg := counters.StandardRegistry()
	byCluster := map[string]*Result{
		"A": {Features: []string{counters.CPUTotal, counters.MemCacheFaults, counters.DiskBytes}},
		"B": {Features: []string{counters.CPUTotal, counters.MemCacheFaults, counters.NetDatagrams}},
		"C": {Features: []string{counters.CPUTotal, counters.MemPages, counters.JobPageFilePeak}},
	}
	gen, err := General(byCluster, reg, 2)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, f := range gen {
		set[f] = true
	}
	// Always-on anchors.
	if !set[counters.CPUTotal] || !set[counters.CPUFreqCore0] {
		t.Errorf("anchors missing: %v", gen)
	}
	// Common across >= 2 clusters.
	if !set[counters.MemCacheFaults] {
		t.Errorf("common feature missing: %v", gen)
	}
	// Category coverage: disk/network/job-object categories appeared in
	// cluster sets, so each contributes a representative.
	if !set[counters.DiskBytes] && !set[counters.NetDatagrams] && !set[counters.JobPageFilePeak] {
		t.Errorf("category representatives missing: %v", gen)
	}
	if _, err := General(nil, reg, 1); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestGeneralRejectsUnknownCounter(t *testing.T) {
	reg := counters.StandardRegistry()
	byCluster := map[string]*Result{
		"A": {Features: []string{"Not\\A Counter"}},
		"B": {Features: []string{"Not\\A Counter"}},
	}
	if _, err := General(byCluster, reg, 1); err == nil {
		t.Error("expected error for unknown counter name")
	}
}

// correlatedMiniTraces builds machines that move in lockstep (one shared
// phase signal plus small per-machine noise), like MapReduce workers whose
// utilization the paper found to be highly correlated across a cluster.
func correlatedMiniTraces(t *testing.T, runs, perRun int) []*trace.Trace {
	t.Helper()
	names := []string{"util", "freq", "shadow", "partA", "partB", "sum", "noise0", "noise1", "constant"}
	var out []*trace.Trace
	for run := 0; run < runs; run++ {
		shared := rand.New(rand.NewSource(int64(1000 + run)))
		phases := make([]float64, perRun)
		freqs := make([]float64, perRun)
		for i := range phases {
			phases[i] = shared.Float64() * 100
			freqs[i] = []float64{800, 1600, 2260}[shared.Intn(3)]
		}
		for m := 0; m < 3; m++ {
			r := rand.New(rand.NewSource(int64(run*31 + m)))
			b := trace.NewBuilder("Mini", "W", "m"+string(rune('0'+m)), run, names, 20)
			for i := 0; i < perRun; i++ {
				util := phases[i] + r.NormFloat64()*1.5
				row := []float64{
					util, freqs[i], 2 * util,
					util * 0.4, r.Float64(), util * 0.4,
					r.NormFloat64(), r.NormFloat64(), 7,
				}
				power := 20 + 0.15*util*(freqs[i]/2260) + r.NormFloat64()*0.15
				if err := b.Add(row, power, power); err != nil {
					t.Fatal(err)
				}
			}
			tr, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tr)
		}
	}
	return out
}

func TestNaivePooledSelectionIsRunFragile(t *testing.T) {
	// Machines running the same workload are near-duplicates, so which
	// machine's copy of a signal the naive pooled selector keeps is an
	// accident of the run — the paper's §IV-A failure: "fragile
	// workload-specific and even run-specific models". Selecting on two
	// different runs must disagree, while Algorithm 1's union-based
	// selection stays stable.
	feats := []string{"util", "freq", "partA"}
	run0 := correlatedMiniTraces(t, 1, 400)
	all := correlatedMiniTraces(t, 2, 400)
	var run1 []*trace.Trace
	for _, tr := range all {
		if tr.Run == 1 {
			run1 = append(run1, tr)
		}
	}
	a, err := NaivePooledSelection(run0, feats, 3)
	if err != nil {
		t.Fatalf("NaivePooledSelection run0: %v", err)
	}
	b, err := NaivePooledSelection(run1, feats, 3)
	if err != nil {
		t.Fatalf("NaivePooledSelection run1: %v", err)
	}
	if a.TotalSelected == 0 || b.TotalSelected == 0 {
		t.Fatal("naive selection kept nothing")
	}
	if reflect.DeepEqual(a.SelectedColumns, b.SelectedColumns) {
		t.Errorf("naive selection identical across runs (%v); fragility not reproduced", a.SelectedColumns)
	}

	// Algorithm 1 on the same two runs is stable.
	s0, err := SelectCluster(run0, miniRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := SelectCluster(run1, miniRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s0.Features, s1.Features) {
		t.Errorf("Algorithm 1 unstable across runs: %v vs %v", s0.Features, s1.Features)
	}
}

func TestNaivePooledSelectionValidation(t *testing.T) {
	if _, err := NaivePooledSelection(nil, []string{"util"}, 4); err == nil {
		t.Error("expected error for no traces")
	}
	traces := miniTraces(t, 1, 50)
	if _, err := NaivePooledSelection(traces, nil, 4); err == nil {
		t.Error("expected error for no features")
	}
	if _, err := NaivePooledSelection(traces, []string{"missing"}, 4); err == nil {
		t.Error("expected error for unknown feature")
	}
}

func TestCheckPooling(t *testing.T) {
	traces := miniTraces(t, 2, 300)
	check, err := CheckPooling(traces, []string{"util", "freq"}, 0)
	if err != nil {
		t.Fatalf("CheckPooling: %v", err)
	}
	// The mini machines differ only by small gain factors: pooling must
	// be adequate, as the paper found for its clusters.
	if !check.Adequate {
		t.Errorf("pooling inadequate (ratio %v) for nearly identical machines", check.Ratio)
	}
	if len(check.Intercepts) != 3 {
		t.Errorf("intercepts = %v, want one per machine", check.Intercepts)
	}
	if _, err := CheckPooling(nil, []string{"util"}, 0); err == nil {
		t.Error("expected error for no traces")
	}
	if _, err := CheckPooling(traces, nil, 0); err == nil {
		t.Error("expected error for no features")
	}
	if _, err := CheckPooling(traces, []string{"nope"}, 0); err == nil {
		t.Error("expected error for unknown feature")
	}
}

func TestCapRows(t *testing.T) {
	tr := miniTrace(t, "m0", 0, 100, 5, 1)
	x, y := tr.X, tr.Power
	cx, cy := capRows(x, y, 30)
	if cx.Rows > 34 || len(cy) != cx.Rows {
		t.Errorf("capRows produced %d rows", cx.Rows)
	}
	cx2, _ := capRows(x, y, 1000)
	if cx2 != x {
		t.Error("under-cap input should be returned unchanged")
	}
}

func TestTopK(t *testing.T) {
	hist := map[int]float64{1: 5, 2: 9, 3: 9, 4: 1}
	got := topK(hist, 2)
	if !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("topK = %v, want [2 3] (weight then index order)", got)
	}
	if got := topK(hist, 10); len(got) != 4 {
		t.Errorf("topK over-size = %v", got)
	}
}
