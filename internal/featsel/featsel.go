// Package featsel implements the paper's Algorithm 1: the six-step
// feature-reduction pipeline that turns the ~250-counter candidate set
// into a cluster-specific model feature set of 10–20 counters, and the
// cross-cluster procedure that yields the general feature set of Table II.
//
// Steps (paper §IV-A):
//  1. prune pairwise correlations |r| > 0.95,
//  2. remove co-dependent counters (a = b + c) from counter definitions,
//  3. per machine+workload, L1 (lasso) regularization keeps ~10 features,
//  4. per machine+workload, backward stepwise elimination by Wald test,
//  5. weighted union histogram over machines and workloads, thresholded,
//  6. stepwise elimination on pooled cluster data; if features fall out,
//     raise the threshold and repeat until the set is stable.
package featsel

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/counters"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/regress"
	"repro/internal/trace"
)

// Options tunes Algorithm 1. Zero values take the paper's defaults.
type Options struct {
	CorrThreshold    float64 // step 1 (default 0.95)
	LassoTargetK     int     // step 3: minimum survivors per machine model (default 12)
	StepwiseAlpha    float64 // steps 4/6 Wald significance level (default 0.01)
	InitialThreshold float64 // step 5 histogram threshold (default 5)
	DroppedWeight    float64 // step 5 weight for lasso-kept-but-stepwise-dropped (default 0.4)
	MaxRows          int     // per-fit row subsample cap for speed (default 1200)
	MinKeep          int     // stepwise floor per machine model (default 3)
}

func (o Options) withDefaults() Options {
	if o.CorrThreshold == 0 {
		o.CorrThreshold = 0.95
	}
	if o.LassoTargetK == 0 {
		o.LassoTargetK = 12
	}
	if o.StepwiseAlpha == 0 {
		o.StepwiseAlpha = 0.01
	}
	// InitialThreshold defaults per dataset size in SelectCluster: the
	// paper starts at 5 with 20 machine x workload combinations (25%).
	if o.DroppedWeight == 0 {
		o.DroppedWeight = 0.4
	}
	if o.MaxRows == 0 {
		o.MaxRows = 1200
	}
	if o.MinKeep == 0 {
		o.MinKeep = 3
	}
	return o
}

// Result reports a cluster feature selection.
type Result struct {
	// Features is the final cluster-specific feature set (counter names).
	Features []string
	// Histogram maps counter name to its step-5 weighted occurrence count.
	Histogram map[string]float64
	// Threshold is the final step-5/6 cut the selection stabilized at.
	Threshold float64
	// Funnel records the candidate-count at each reduction step.
	Funnel Funnel
}

// Funnel counts surviving features after each stage of Algorithm 1.
type Funnel struct {
	Candidates    int // registry size
	AfterConstant int // non-constant counters observed
	AfterCorr     int // after step 1
	AfterCoDep    int // after step 2
	PerMachineAvg float64
	Final         int
}

// SelectCluster runs Algorithm 1 for one cluster. traces must contain the
// cluster's machines across all workloads and runs; reg supplies counter
// definitions for step 2.
func SelectCluster(traces []*trace.Trace, reg *counters.Registry, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if len(traces) == 0 {
		return nil, fmt.Errorf("featsel: no traces")
	}
	names := traces[0].Names
	if len(names) != reg.Len() {
		return nil, fmt.Errorf("featsel: traces carry %d counters but registry has %d", len(names), reg.Len())
	}
	span := obs.StartSpan("featsel.select_cluster", obs.Int("traces", len(traces)))
	defer span.End()
	funnel := Funnel{Candidates: reg.Len()}

	pooledX, pooledY, err := trace.Pool(traces)
	if err != nil {
		return nil, err
	}
	pooledX, pooledY = capRows(pooledX, pooledY, opts.MaxRows*4)

	// Pre-step: drop constant counters (dead instances, config values).
	kept, _ := regress.DropConstant(pooledX)
	funnel.AfterConstant = len(kept)

	// Step 1: correlation pruning on pooled data across all workloads.
	s1 := span.Child("featsel.step1_corr_prune")
	sub := pooledX.SelectCols(kept)
	k1, _, err := regress.CorrelationPrune(sub, opts.CorrThreshold)
	if err != nil {
		return nil, err
	}
	kept = indexThrough(kept, k1)
	funnel.AfterCorr = len(kept)
	s1.SetAttr(obs.Int("kept", len(kept)))
	s1.End()

	// Step 2: co-dependent counters from definitions.
	s2 := span.Child("featsel.step2_codep_prune")
	keptSet := map[int]bool{}
	for _, j := range kept {
		keptSet[j] = true
	}
	var deps []regress.CoDependency
	for _, d := range reg.CoDependencies() {
		deps = append(deps, regress.CoDependency{Sum: d.Sum, Parts: d.Parts})
	}
	drop := coDependentDrops(reg.Len(), deps)
	kept = kept[:0]
	for j := 0; j < reg.Len(); j++ {
		if keptSet[j] && !drop[j] {
			kept = append(kept, j)
		}
	}
	funnel.AfterCoDep = len(kept)
	s2.SetAttr(obs.Int("kept", len(kept)))
	s2.End()
	if len(kept) == 0 {
		return nil, fmt.Errorf("featsel: all counters eliminated before regression steps")
	}

	// Steps 3-4 per machine and workload; step 5 accumulates the
	// weighted histogram over the union of selections, in group order so
	// that its sums do not depend on which group finished first.
	s34 := span.Child("featsel.step3_4_per_machine")
	hist := make(map[int]float64)
	groups := groupByMachineWorkload(traces)
	sels := selectGroups(groups, kept, opts)
	var perMachineSizes []float64
	for _, g := range sels {
		if g.err != nil {
			return nil, g.err
		}
		if len(g.lasso) == 0 {
			continue
		}
		perMachineSizes = append(perMachineSizes, float64(len(g.stepwise)))
		// Step 5 weights: 1 for stepwise survivors, DroppedWeight for
		// lasso picks that stepwise discarded.
		survived := map[int]bool{}
		for _, j := range g.stepwise {
			hist[kept[g.lasso[j]]] += 1
			survived[g.lasso[j]] = true
		}
		for _, j := range g.lasso {
			if !survived[j] {
				hist[kept[j]] += opts.DroppedWeight
			}
		}
	}
	s34.SetAttr(obs.Int("groups", len(groups)), obs.Int("survivors", len(hist)))
	s34.End()
	if len(hist) == 0 {
		return nil, fmt.Errorf("featsel: no features survived per-machine selection")
	}
	funnel.PerMachineAvg = mathx.Mean(perMachineSizes)

	// Steps 5-6: threshold the histogram, then run stepwise on the full
	// cluster data; if stepwise rejects features, raise the threshold
	// and repeat until the selected set is stepwise-stable.
	s56 := span.Child("featsel.step5_6_threshold")
	threshold := opts.InitialThreshold
	if threshold == 0 {
		// The paper starts at a weighted occurrence count of 5 out of 20
		// machine x workload combinations; scale that 25% to this
		// dataset, with a floor of 2.
		threshold = float64(int(0.25*float64(len(groups)) + 0.5))
		if threshold < 2 {
			threshold = 2
		}
	}
	var final []int
	var lastSurvivors []int
	for {
		var sel []int
		for j := 0; j < reg.Len(); j++ {
			if hist[j] >= threshold {
				sel = append(sel, j)
			}
		}
		if len(sel) <= opts.MinKeep {
			// The threshold rose past the point of usefulness: keep the
			// thresholded set itself, the last cluster-stepwise
			// survivors, or as a last resort the top-weighted features.
			switch {
			case len(sel) > 0:
				final = sel
			case len(lastSurvivors) > 0:
				final = lastSurvivors
			default:
				final = topK(hist, opts.MinKeep)
			}
			break
		}
		sub := pooledX.SelectCols(sel)
		sw, err := regress.Stepwise(sub, pooledY, opts.StepwiseAlpha, opts.MinKeep)
		if err != nil {
			return nil, err
		}
		if len(sw.Dropped) == 0 {
			final = sel
			break
		}
		lastSurvivors = indexThrough(sel, sw.Kept)
		threshold++
	}
	sort.Ints(final)
	funnel.Final = len(final)
	s56.SetAttr(obs.Int("final", len(final)), obs.Float("threshold", threshold))
	s56.End()
	span.SetAttr(obs.Int("features", len(final)))
	obs.Default().Gauge("chaos_featsel_selected_features", nil).Set(float64(len(final)))

	res := &Result{
		Histogram: map[string]float64{},
		Threshold: threshold,
		Funnel:    funnel,
	}
	for j, w := range hist {
		res.Histogram[names[j]] = w
	}
	for _, j := range final {
		res.Features = append(res.Features, names[j])
	}
	return res, nil
}

// groupSelection is one (machine, workload) group's steps 3 and 4: the
// lasso's picks, as indices into the columns kept by steps 1-2, and the
// stepwise survivors among them, as indices into lasso.
type groupSelection struct {
	lasso, stepwise []int
	err             error
}

// selectGroups runs steps 3 and 4 for every group on up to GOMAXPROCS
// goroutines and returns the results in group order.
func selectGroups(groups [][]*trace.Trace, kept []int, opts Options) []groupSelection {
	out := make([]groupSelection, len(groups))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(groups)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(groups) {
					return
				}
				out[i] = selectGroup(groups[i], kept, opts)
			}
		}()
	}
	wg.Wait()
	return out
}

// selectGroup runs steps 3 and 4 on one group's pooled runs.
func selectGroup(g []*trace.Trace, kept []int, opts Options) groupSelection {
	x, y, err := trace.Pool(g)
	if err != nil {
		return groupSelection{err: err}
	}
	x, y = capRows(x, y, opts.MaxRows)
	sub := x.SelectCols(kept)

	// Step 3: lasso selection.
	lsel, err := regress.LassoSelect(sub, y, opts.LassoTargetK)
	if err != nil || len(lsel) == 0 {
		return groupSelection{err: err}
	}
	// Step 4: stepwise elimination over the lasso survivors.
	sw, err := regress.Stepwise(sub.SelectCols(lsel), y, opts.StepwiseAlpha, opts.MinKeep)
	if err != nil {
		return groupSelection{err: err}
	}
	return groupSelection{lasso: lsel, stepwise: sw.Kept}
}

// indexThrough composes index selections: outer[inner[i]].
func indexThrough(outer, inner []int) []int {
	out := make([]int, len(inner))
	for i, j := range inner {
		out[i] = outer[j]
	}
	return out
}

// coDependentDrops marks the columns step 2 removes.
func coDependentDrops(n int, deps []regress.CoDependency) []bool {
	_, removed := regress.CoDependentPrune(n, deps)
	drop := make([]bool, n)
	for _, j := range removed {
		drop[j] = true
	}
	return drop
}

// groupByMachineWorkload partitions traces into (machine, workload) groups
// pooled over runs, in deterministic order.
func groupByMachineWorkload(traces []*trace.Trace) [][]*trace.Trace {
	type key struct{ m, w string }
	idx := map[key]int{}
	var out [][]*trace.Trace
	for _, t := range traces {
		k := key{t.MachineID, t.Workload}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], t)
	}
	return out
}

// capRows subsamples x/y evenly down to at most maxRows rows.
func capRows(x *mathx.Matrix, y []float64, maxRows int) (*mathx.Matrix, []float64) {
	if maxRows <= 0 || x.Rows <= maxRows {
		return x, y
	}
	step := (x.Rows + maxRows - 1) / maxRows
	var rows []int
	for i := 0; i < x.Rows; i += step {
		rows = append(rows, i)
	}
	suby := make([]float64, len(rows))
	for k, i := range rows {
		suby[k] = y[i]
	}
	return x.SelectRows(rows), suby
}

// topK returns the k highest-weighted feature indices.
func topK(hist map[int]float64, k int) []int {
	type kv struct {
		j int
		w float64
	}
	all := make([]kv, 0, len(hist))
	for j, w := range hist {
		all = append(all, kv{j, w})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].w != all[b].w {
			return all[a].w > all[b].w
		}
		return all[a].j < all[b].j
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].j
	}
	return out
}
