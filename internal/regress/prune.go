package regress

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// CorrelationPrune implements step 1 of the paper's Algorithm 1: among
// groups of columns whose pairwise Pearson correlation exceeds threshold in
// absolute value, keep one representative (the lowest index in each group)
// and drop the rest. It returns the indices of surviving columns in
// ascending order and the indices removed.
//
// Each kept column, in index order, drops every later kept column too
// correlated with it, so only pairs of two kept columns are ever read, and
// only those are computed. Every r equals mathx.Correlation's bit for bit:
// each column is centred and its squares summed once, with the operations
// mathx.Correlation repeats for every pair, in the same order.
func CorrelationPrune(x *mathx.Matrix, threshold float64) (kept, removed []int, err error) {
	if threshold <= 0 || threshold > 1 {
		return nil, nil, fmt.Errorf("regress: correlation threshold %g out of (0,1]", threshold)
	}
	n := x.Cols
	dropped := make([]bool, n)
	// With fewer than 2 rows every correlation is 0 and nothing is dropped.
	if x.Rows >= 2 {
		dev := make([][]float64, n)
		ss := make([]float64, n)
		for j := range dev {
			col := x.Col(j)
			m := mathx.Mean(col)
			for i, v := range col {
				d := v - m
				col[i] = d
				ss[j] += d * d
			}
			dev[j] = col
		}
		for i := 0; i < n; i++ {
			if dropped[i] || ss[i] == 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if dropped[j] || ss[j] == 0 {
					continue
				}
				sxy := 0.0
				for k, d := range dev[i] {
					sxy += d * dev[j][k]
				}
				if r := sxy / math.Sqrt(ss[i]*ss[j]); r > threshold || r < -threshold {
					dropped[j] = true
				}
			}
		}
	}
	for j := 0; j < n; j++ {
		if dropped[j] {
			removed = append(removed, j)
		} else {
			kept = append(kept, j)
		}
	}
	return kept, removed, nil
}

// CoDependency declares that column Sum is (approximately) the sum of the
// Parts columns, mirroring performance-counter definitions like
// "Total IO Bytes = IO Read Bytes + IO Write Bytes".
type CoDependency struct {
	Sum   int
	Parts []int
}

// CoDependentPrune implements step 2 of Algorithm 1: for each declared
// co-dependency a = b + c (+ ...), remove the aggregate column and all but
// the last part, following the paper's rule of dropping features a and b
// when a = b + c. Indices are over the original column space; the returned
// kept slice is ascending.
func CoDependentPrune(nCols int, deps []CoDependency) (kept, removed []int) {
	dropped := make([]bool, nCols)
	for _, d := range deps {
		if d.Sum >= 0 && d.Sum < nCols {
			dropped[d.Sum] = true
		}
		// Keep only the final part of each identity; the rest are
		// redundant given the aggregate's definition.
		for k := 0; k+1 < len(d.Parts); k++ {
			if p := d.Parts[k]; p >= 0 && p < nCols {
				dropped[p] = true
			}
		}
	}
	for j := 0; j < nCols; j++ {
		if dropped[j] {
			removed = append(removed, j)
		} else {
			kept = append(kept, j)
		}
	}
	return kept, removed
}

// DropConstant returns the indices of columns in x whose variance is
// nonzero. Constant counters carry no information about dynamic power and
// destabilize standardization, so the pipeline removes them first.
func DropConstant(x *mathx.Matrix) (kept, removed []int) {
	for j := 0; j < x.Cols; j++ {
		if mathx.Variance(x.Col(j)) > 0 {
			kept = append(kept, j)
		} else {
			removed = append(removed, j)
		}
	}
	return kept, removed
}
