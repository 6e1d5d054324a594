package regress_test

import (
	"fmt"
	"math/rand"

	"repro/internal/mathx"
	"repro/internal/regress"
)

// Backward stepwise elimination keeps only the predictors whose Wald test
// says they matter — step 4 of the paper's Algorithm 1.
func ExampleStepwise() {
	r := rand.New(rand.NewSource(1))
	n := 300
	x := mathx.NewMatrix(n, 3) // col 0 real, cols 1-2 noise
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, r.NormFloat64())
		}
		y[i] = 5*x.At(i, 0) + r.NormFloat64()*0.1
	}
	res, _ := regress.Stepwise(x, y, 0.01, 1)
	fmt.Println("kept columns:", res.Kept)
	// Output: kept columns: [0]
}

// The lasso zeroes out irrelevant coefficients entirely — step 3 of
// Algorithm 1.
func ExampleLassoSelect() {
	r := rand.New(rand.NewSource(2))
	n := 400
	x := mathx.NewMatrix(n, 4)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, r.NormFloat64())
		}
		y[i] = 3*x.At(i, 1) + r.NormFloat64()*0.1
	}
	sel, _ := regress.LassoSelect(x, y, 1)
	fmt.Println("selected columns:", sel)
	// Output: selected columns: [1]
}
