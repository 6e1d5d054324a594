package regress

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/obs"
)

// The lasso path LassoSelect walks: pathLen geometric steps from λmax down
// to pathRatio·λmax, each a cold-start fit of at most maxSweeps sweeps that
// stops once no coefficient moves by sweepTol.
const (
	pathLen   = 30
	pathRatio = 1e-3
	maxSweeps = 2000
	sweepTol  = 1e-7
)

func softThreshold(z, gamma float64) float64 {
	switch {
	case z > gamma:
		return z - gamma
	case z < -gamma:
		return z + gamma
	default:
		return 0
	}
}

// LassoSelect is step 3 of the paper's Algorithm 1, which discards
// irrelevant features in high-dimensional counter spaces and keeps "on the
// order of 10" of them. It walks a lasso path from λmax, the smallest λ
// that zeroes every coefficient, down to pathRatio·λmax, and returns the
// columns of x kept by the first (most regularized) fit with at least
// targetK nonzero coefficients, or by the least-regularized fit if none has
// that many. λ is on the standardized scale; the path follows glmnet
// (Friedman, Hastie & Tibshirani, J. Stat. Softw. 2010).
func LassoSelect(x *mathx.Matrix, y []float64, targetK int) ([]int, error) {
	span := obs.StartSpan("regress.lasso_select", obs.Int("cols", x.Cols), obs.Int("target_k", targetK))
	defer span.End()
	n, p := x.Rows, x.Cols
	if n != len(y) {
		return nil, fmt.Errorf("regress: %d rows but %d responses", n, len(y))
	}
	if n < 2 {
		return nil, fmt.Errorf("regress: lasso needs at least 2 observations, got %d", n)
	}
	// Standardize predictors and center the response once for the whole
	// path.
	cols := make([][]float64, p)
	scales := make([]float64, p)
	for j := range cols {
		cols[j], _, scales[j] = mathx.Standardize(x.Col(j))
	}
	ybar := mathx.Mean(y)
	yc := make([]float64, n)
	for i, v := range y {
		yc[i] = v - ybar
	}
	// λmax = max_j |⟨z_j, y − ȳ⟩|/n. When it is 0, the first sweep of every
	// fit moves no coefficient, so every fit keeps nothing whatever its λ.
	lmax := 0.0
	for _, cj := range cols {
		dot := 0.0
		for i, c := range cj {
			dot += c * yc[i]
		}
		if a := math.Abs(dot) / float64(n); a > lmax {
			lmax = a
		}
	}

	beta := make([]float64, p)
	resid := make([]float64, n)
	var sel []int
	fits, notConverged := 0, 0
	for k := 0; k < pathLen; k++ {
		lambda := lmax * math.Pow(pathRatio, float64(k)/float64(pathLen-1))
		clear(beta)
		copy(resid, yc)
		fits++
		if !coordinateDescent(cols, resid, beta, lambda) {
			notConverged++
		}
		// A feature is selected when its coefficient is nonzero in the
		// original units, β_j/σ_j.
		sel = nil
		for j, b := range beta {
			if b != 0 && b/scales[j] != 0 {
				sel = append(sel, j)
			}
		}
		if len(sel) >= targetK {
			break
		}
	}
	span.SetAttr(obs.Int("fits", fits), obs.Int("not_converged", notConverged))
	return sel, nil
}

// coordinateDescent fits the lasso at lambda by cyclic coordinate descent
// over unit-variance columns (Friedman et al.'s glmnet update). beta holds
// the starting coefficients and resid the centred response minus their
// fit; both are updated in place. It reports whether a sweep moved no
// coefficient by sweepTol or more within maxSweeps sweeps.
func coordinateDescent(cols [][]float64, resid, beta []float64, lambda float64) bool {
	nf := float64(len(resid))
	for sweep := 0; sweep < maxSweeps; sweep++ {
		maxDelta := 0.0
		for j, cj := range cols {
			// rho = (1/n) Σ x_ij (resid_i + x_ij β_j); unit variance
			// columns make the denominator 1.
			rho := 0.0
			for i, c := range cj {
				rho += c * resid[i]
			}
			rho = rho/nf + beta[j]
			newBeta := softThreshold(rho, lambda)
			if d := newBeta - beta[j]; d != 0 {
				for i, c := range cj {
					resid[i] -= d * c
				}
				if a := math.Abs(d); a > maxDelta {
					maxDelta = a
				}
				beta[j] = newBeta
			}
		}
		if maxDelta < sweepTol {
			return true
		}
	}
	return false
}
