package regress

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mathx"
)

func TestCorrelationPrune(t *testing.T) {
	// col1 = 2*col0 (perfectly correlated), col2 independent.
	r := rand.New(rand.NewSource(20))
	n := 100
	x := mathx.NewMatrix(n, 3)
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		x.Set(i, 0, v)
		x.Set(i, 1, 2*v)
		x.Set(i, 2, r.NormFloat64())
	}
	kept, removed, err := CorrelationPrune(x, 0.95)
	if err != nil {
		t.Fatalf("CorrelationPrune: %v", err)
	}
	if !reflect.DeepEqual(kept, []int{0, 2}) {
		t.Errorf("kept = %v, want [0 2]", kept)
	}
	if !reflect.DeepEqual(removed, []int{1}) {
		t.Errorf("removed = %v, want [1]", removed)
	}
}

func TestCorrelationPruneNegativeCorrelation(t *testing.T) {
	n := 50
	x := mathx.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i))
		x.Set(i, 1, -float64(i))
	}
	kept, _, err := CorrelationPrune(x, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 {
		t.Errorf("kept = %v, want one of a perfectly anti-correlated pair removed", kept)
	}
}

func TestCorrelationPruneTransitiveGroups(t *testing.T) {
	// Three copies of the same signal: keep exactly one.
	r := rand.New(rand.NewSource(21))
	n := 80
	x := mathx.NewMatrix(n, 4)
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		x.Set(i, 0, v)
		x.Set(i, 1, v*3+1)
		x.Set(i, 2, v*-2)
		x.Set(i, 3, r.NormFloat64())
	}
	kept, _, err := CorrelationPrune(x, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kept, []int{0, 3}) {
		t.Errorf("kept = %v, want [0 3]", kept)
	}
}

func TestCorrelationPruneValidation(t *testing.T) {
	x := mathx.NewMatrix(5, 2)
	if _, _, err := CorrelationPrune(x, 0); err == nil {
		t.Error("expected threshold validation error")
	}
	if _, _, err := CorrelationPrune(x, 1.5); err == nil {
		t.Error("expected threshold validation error")
	}
}

// TestCorrelationPruneMatchesPairwise checks CorrelationPrune against
// refCorrelationPrune, which computes mathx.Correlation for every pair, on
// 300 random designs with constant, duplicate, scaled, negated, noisy-copy
// and NaN columns, 1 to 40 rows, and thresholds up to 1.
func TestCorrelationPruneMatchesPairwise(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, p := 1+r.Intn(40), 1+r.Intn(12)
		if seed%10 == 0 {
			n = 1
		}
		x := mathx.NewMatrix(n, p)
		for j := 0; j < p; j++ {
			a := r.Intn(j + 1)
			kind := r.Intn(8)
			if j == 0 && kind >= 2 && kind <= 5 {
				kind = 0 // copies need an earlier column
			}
			w, off := r.NormFloat64()*3, r.NormFloat64()*10
			for i := 0; i < n; i++ {
				var v float64
				switch kind {
				case 0:
					v = r.NormFloat64()
				case 1:
					v = off
				case 2:
					v = x.At(i, a)
				case 3:
					v = w*x.At(i, a) + off
				case 4:
					v = -x.At(i, a)
				case 5:
					v = x.At(i, a) + 0.2*r.NormFloat64()
				case 6:
					v = float64(r.Intn(3))
				case 7:
					v = r.NormFloat64()
					if r.Intn(3) == 0 {
						v = math.NaN()
					}
				}
				x.Set(i, j, v)
			}
		}
		for _, threshold := range []float64{0.3, 0.9, 0.95, 1} {
			kept, removed, err := CorrelationPrune(x, threshold)
			if err != nil {
				t.Fatal(err)
			}
			wantKept, wantRemoved := refCorrelationPrune(x, threshold)
			if !reflect.DeepEqual(kept, wantKept) || !reflect.DeepEqual(removed, wantRemoved) {
				t.Fatalf("seed %d (%dx%d), threshold %v: kept %v removed %v, pairwise kept %v removed %v",
					seed, n, p, threshold, kept, removed, wantKept, wantRemoved)
			}
		}
	}
}

// refCorrelationPrune is step 1 computed from mathx.Correlation of every
// pair of columns.
func refCorrelationPrune(x *mathx.Matrix, threshold float64) (kept, removed []int) {
	p := x.Cols
	r := make([][]float64, p)
	for i := range r {
		r[i] = make([]float64, p)
		for j := range r[i] {
			r[i][j] = mathx.Correlation(x.Col(i), x.Col(j))
		}
	}
	dropped := make([]bool, p)
	for i := 0; i < p; i++ {
		for j := i + 1; j < p && !dropped[i]; j++ {
			if !dropped[j] && math.Abs(r[i][j]) > threshold {
				dropped[j] = true
			}
		}
	}
	for j, d := range dropped {
		if d {
			removed = append(removed, j)
		} else {
			kept = append(kept, j)
		}
	}
	return kept, removed
}

func TestCoDependentPrune(t *testing.T) {
	// 5 columns; col 4 = col 1 + col 2: drop the aggregate (4) and all
	// parts except the last (drop 1, keep 2).
	kept, removed := CoDependentPrune(5, []CoDependency{{Sum: 4, Parts: []int{1, 2}}})
	if !reflect.DeepEqual(kept, []int{0, 2, 3}) {
		t.Errorf("kept = %v, want [0 2 3]", kept)
	}
	if !reflect.DeepEqual(removed, []int{1, 4}) {
		t.Errorf("removed = %v, want [1 4]", removed)
	}
}

func TestCoDependentPruneBoundsAndEmpty(t *testing.T) {
	kept, removed := CoDependentPrune(3, []CoDependency{{Sum: 99, Parts: []int{-1, 2}}})
	if !reflect.DeepEqual(kept, []int{0, 1, 2}) || removed != nil {
		t.Errorf("out-of-range deps should be ignored: kept=%v removed=%v", kept, removed)
	}
	kept, removed = CoDependentPrune(2, nil)
	if len(kept) != 2 || removed != nil {
		t.Errorf("no deps: kept=%v removed=%v", kept, removed)
	}
}

func TestDropConstant(t *testing.T) {
	x, _ := mathx.FromRows([][]float64{
		{1, 5, 2},
		{2, 5, 3},
		{3, 5, 4},
	})
	kept, removed := DropConstant(x)
	if !reflect.DeepEqual(kept, []int{0, 2}) {
		t.Errorf("kept = %v, want [0 2]", kept)
	}
	if !reflect.DeepEqual(removed, []int{1}) {
		t.Errorf("removed = %v, want [1]", removed)
	}
}
