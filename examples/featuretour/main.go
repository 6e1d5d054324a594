// Featuretour: a step-by-step walk through Algorithm 1, printing the
// feature funnel at every stage — from the ~250-counter candidate set to
// the final cluster-specific model features — plus the weighted-occurrence
// histogram the selection threshold cuts (paper §IV-A and Figure 2).
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/featsel"
)

func main() {
	ds, err := core.Collect("Opteron", 3, []string{"Sort", "Prime"}, 2, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d traces x %d counters\n\n", len(ds.AllTraces()), ds.Registry.Len())

	res, err := ds.SelectFeatures()
	if err != nil {
		log.Fatal(err)
	}
	f := res.Funnel
	fmt.Println("Algorithm 1 funnel:")
	fmt.Printf("  candidate counters:              %4d\n", f.Candidates)
	fmt.Printf("  non-constant on this cluster:    %4d\n", f.AfterConstant)
	fmt.Printf("  step 1, |r|>0.95 pruned:         %4d\n", f.AfterCorr)
	fmt.Printf("  step 2, co-dependent removed:    %4d\n", f.AfterCoDep)
	fmt.Printf("  steps 3-4, per-machine models:   %4.1f features on average\n", f.PerMachineAvg)
	fmt.Printf("  steps 5-6, cluster set (th=%.0f):  %4d\n", res.Threshold, f.Final)

	fmt.Println("\nweighted occurrence histogram (steps 5-6):")
	type kv struct {
		name string
		w    float64
	}
	var hist []kv
	for name, w := range res.Histogram {
		hist = append(hist, kv{name, w})
	}
	sort.Slice(hist, func(a, b int) bool {
		if hist[a].w != hist[b].w {
			return hist[a].w > hist[b].w
		}
		return hist[a].name < hist[b].name
	})
	for i, h := range hist {
		if i >= 15 {
			fmt.Printf("  ... %d more below threshold\n", len(hist)-i)
			break
		}
		mark := " "
		if h.w >= res.Threshold {
			mark = "*"
		}
		fmt.Printf("  %s %5.1f  %s\n", mark, h.w, h.name)
	}
	fmt.Println("\nfinal cluster-specific feature set:")
	for _, f := range res.Features {
		fmt.Printf("  %s\n", f)
	}

	// The paper's §IV pooling-adequacy check: per-machine intercepts vs
	// a shared pooled model.
	check, err := featsel.CheckPooling(ds.AllTraces(), res.Features, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npooling check: machine-intercept spread = %.1f%% of the dynamic range", check.SpreadFraction*100)
	if check.Adequate {
		fmt.Println(" -> pooling is adequate (as the paper found)")
	} else {
		fmt.Println(" -> hierarchical modeling would be warranted")
	}
}
