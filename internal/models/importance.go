package models

import (
	"fmt"
	"sort"

	"repro/internal/mathx"
	"repro/internal/trace"
)

// Importance is one input feature's contribution to a fitted model's
// output swing.
type Importance struct {
	Feature string
	// Weight is the estimated output range (watts) the feature can move
	// the prediction by, holding the others at their medians.
	Weight float64
}

// FeatureImportance estimates each input's influence on a fitted machine
// model by one-at-a-time sweeps over the evaluation traces: every feature
// is swept across its observed 5th–95th percentile range while the others
// sit at their medians, and the induced prediction swing is its weight.
// This is model-agnostic (works for linear, MARS, and switching models)
// and mirrors the per-feature significance reasoning of the paper's §V-D
// discussion. Results are sorted by weight descending.
func FeatureImportance(mm *MachineModel, ts []*trace.Trace) ([]Importance, error) {
	if mm == nil || mm.Model == nil {
		return nil, fmt.Errorf("models: nil machine model")
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("models: no traces for importance analysis")
	}
	x, _, err := BuildPooledDesign(ts, mm.Spec)
	if err != nil {
		return nil, err
	}
	p := x.Cols
	base := make([]float64, p)
	lo := make([]float64, p)
	hi := make([]float64, p)
	for j := 0; j < p; j++ {
		col := x.Col(j)
		base[j] = mathx.Median(col)
		lo[j] = mathx.Percentile(col, 5)
		hi[j] = mathx.Percentile(col, 95)
	}
	names := inputNames(mm.Spec)
	out := make([]Importance, 0, p)
	const steps = 9
	row := make([]float64, p)
	for j := 0; j < p; j++ {
		copy(row, base)
		min, max := 0.0, 0.0
		for s := 0; s <= steps; s++ {
			row[j] = lo[j] + (hi[j]-lo[j])*float64(s)/steps
			v := mm.Model.Predict(row)
			if s == 0 || v < min {
				min = v
			}
			if s == 0 || v > max {
				max = v
			}
		}
		out = append(out, Importance{Feature: names[j], Weight: max - min})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Weight != out[b].Weight {
			return out[a].Weight > out[b].Weight
		}
		return out[a].Feature < out[b].Feature
	})
	return out, nil
}

// inputNames lists the model's input labels including lag columns.
func inputNames(spec FeatureSpec) []string {
	names := append([]string(nil), spec.Counters...)
	for k := 1; k <= spec.NumInputs()-len(spec.Counters); k++ {
		names = append(names, fmt.Sprintf("MHz(t-%d)", k))
	}
	return names
}

// UsedTerms returns, for MARS-backed models, how many basis terms the
// fitted model kept — a complexity indicator for the paper's
// complexity-vs-accuracy tradeoff. Linear models report their coefficient
// count; switching models the number of frequency bins.
func UsedTerms(m Model) int {
	switch v := m.(type) {
	case *marsModel:
		return v.m.NumTerms()
	case *Linear:
		return len(v.Coef) + 1
	case *Switching:
		return len(v.Bins) + 1
	default:
		return 0
	}
}
