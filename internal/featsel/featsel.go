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
	"sort"

	"repro/internal/counters"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/regress"
	"repro/internal/trace"
)

// Algorithm 1's fixed parameters (paper §IV-A), and the row caps that
// bound its fitting cost.
const (
	defaultCorrThreshold = 0.95 // step 1
	lassoTargetK         = 12   // step 3: minimum survivors per machine model
	stepwiseAlpha        = 0.01 // steps 4 and 6: Wald significance level
	droppedWeight        = 0.4  // step 5: weight of a lasso pick stepwise dropped
	maxRows              = 1200 // per-fit row subsample cap
	minKeep              = 3    // stepwise floor per machine model
)

// Options tunes Algorithm 1.
type Options struct {
	// CorrThreshold is step 1's |r| cut; 0 means the paper's 0.95.
	CorrThreshold float64
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
	corrThreshold := opts.CorrThreshold
	if corrThreshold == 0 {
		corrThreshold = defaultCorrThreshold
	}
	if len(traces) == 0 {
		return nil, fmt.Errorf("featsel: no traces")
	}
	names := traces[0].Names
	if len(names) != reg.Len() {
		return nil, fmt.Errorf("featsel: traces carry %d counters but registry has %d", len(names), reg.Len())
	}
	span := obs.StartSpan("featsel.select_cluster")
	defer span.End()
	funnel := Funnel{Candidates: reg.Len()}

	pooledX, pooledY, err := trace.Pool(traces)
	if err != nil {
		return nil, err
	}
	pooledX, pooledY = capRows(pooledX, pooledY, maxRows*4)

	// Pre-step: drop constant counters (dead instances, config values).
	kept, _ := regress.DropConstant(pooledX)
	funnel.AfterConstant = len(kept)

	// Step 1: correlation pruning on pooled data across all workloads.
	s1 := obs.StartSpan("featsel.step1_corr_prune")
	sub := pooledX.SelectCols(kept)
	k1, _, err := regress.CorrelationPrune(sub, corrThreshold)
	if err != nil {
		return nil, err
	}
	kept = indexThrough(kept, k1)
	funnel.AfterCorr = len(kept)
	s1.End()

	// Step 2: co-dependent counters from definitions.
	s2 := obs.StartSpan("featsel.step2_codep_prune")
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
	s2.End()
	if len(kept) == 0 {
		return nil, fmt.Errorf("featsel: all counters eliminated before regression steps")
	}

	// Steps 3-4 per machine and workload; step 5 accumulates the
	// weighted histogram over the union of selections, in group order so
	// that its sums do not depend on which group finished first.
	s34 := obs.StartSpan("featsel.step3_4_per_machine")
	hist := make(map[int]float64)
	groups := groupByMachineWorkload(traces)
	sels := selectGroups(groups, kept)
	var perMachineSizes []float64
	for _, g := range sels {
		if g.err != nil {
			return nil, g.err
		}
		if len(g.lasso) == 0 {
			continue
		}
		perMachineSizes = append(perMachineSizes, float64(len(g.stepwise)))
		// Step 5 weights: 1 for stepwise survivors, droppedWeight for
		// lasso picks that stepwise discarded.
		survived := map[int]bool{}
		for _, j := range g.stepwise {
			hist[kept[g.lasso[j]]] += 1
			survived[g.lasso[j]] = true
		}
		for _, j := range g.lasso {
			if !survived[j] {
				hist[kept[j]] += droppedWeight
			}
		}
	}
	s34.End()
	if len(hist) == 0 {
		return nil, fmt.Errorf("featsel: no features survived per-machine selection")
	}
	funnel.PerMachineAvg = mathx.Mean(perMachineSizes)

	// Steps 5-6: threshold the histogram, then run stepwise on the full
	// cluster data; if stepwise rejects features, raise the threshold
	// and repeat until the selected set is stepwise-stable.
	s56 := obs.StartSpan("featsel.step5_6_threshold")
	// The paper starts at a weighted occurrence count of 5 out of 20
	// machine x workload combinations; scale that 25% to this dataset,
	// with a floor of 2.
	threshold := max(float64(int(0.25*float64(len(groups))+0.5)), 2)
	var final []int
	var lastSurvivors []int
	for {
		var sel []int
		for j := 0; j < reg.Len(); j++ {
			if hist[j] >= threshold {
				sel = append(sel, j)
			}
		}
		if len(sel) <= minKeep {
			// The threshold rose past the point of usefulness: keep the
			// thresholded set itself, the last cluster-stepwise
			// survivors, or as a last resort the top-weighted features.
			switch {
			case len(sel) > 0:
				final = sel
			case len(lastSurvivors) > 0:
				final = lastSurvivors
			default:
				final = topK(hist, minKeep)
			}
			break
		}
		sub := pooledX.SelectCols(sel)
		sw, err := regress.Stepwise(sub, pooledY, stepwiseAlpha, minKeep)
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
	s56.End()
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
func selectGroups(groups [][]*trace.Trace, kept []int) []groupSelection {
	out := make([]groupSelection, len(groups))
	mathx.ParallelFor(len(groups), func(i int) { out[i] = selectGroup(groups[i], kept) })
	return out
}

// selectGroup runs steps 3 and 4 on one group's pooled runs.
func selectGroup(g []*trace.Trace, kept []int) groupSelection {
	x, y, err := trace.Pool(g)
	if err != nil {
		return groupSelection{err: err}
	}
	x, y = capRows(x, y, maxRows)
	sub := x.SelectCols(kept)

	// Step 3: lasso selection.
	lsel, err := regress.LassoSelect(sub, y, lassoTargetK)
	if err != nil || len(lsel) == 0 {
		return groupSelection{err: err}
	}
	// Step 4: stepwise elimination over the lasso survivors.
	sw, err := regress.Stepwise(sub.SelectCols(lsel), y, stepwiseAlpha, minKeep)
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

// capRows subsamples x/y evenly down to at most limit rows.
func capRows(x *mathx.Matrix, y []float64, limit int) (*mathx.Matrix, []float64) {
	if x.Rows <= limit {
		return x, y
	}
	step := (x.Rows + limit - 1) / limit
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
