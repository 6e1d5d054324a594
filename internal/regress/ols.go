// Package regress implements the regression machinery the CHAOS feature
// selection and modeling pipeline depends on: ordinary least squares with
// Wald significance tests, backward stepwise elimination, L1-regularized
// (lasso) regression via coordinate descent, and correlation-based pruning.
//
// These correspond to the statistical tools the paper took from R; here
// they are built from scratch on internal/mathx.
package regress

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/obs"
)

// OLSResult holds a fitted ordinary-least-squares model: an intercept plus
// one coefficient per predictor column, with standard errors and Wald
// p-values for each coefficient (intercept first).
type OLSResult struct {
	Intercept float64
	Coef      []float64 // per predictor column
	StdErr    []float64 // len = 1 + len(Coef); [0] is the intercept's
	PValues   []float64 // two-sided Wald p-values, same layout as StdErr
	Sigma2    float64   // residual variance estimate
	R2        float64   // coefficient of determination
	N         int       // observations
	Ridged    bool      // true if a ridge fallback was needed (collinear X)
}

// Predict returns the fitted value for a single predictor row.
func (r *OLSResult) Predict(x []float64) float64 {
	y := r.Intercept
	for j, c := range r.Coef {
		y += c * x[j]
	}
	return y
}

// ErrTooFewRows is returned when there are not enough observations to fit
// the requested number of parameters.
var ErrTooFewRows = errors.New("regress: fewer observations than parameters")

// OLS fits y = b0 + Σ bj·xj by least squares. x holds one predictor per
// column (no intercept column; it is added internally).
func OLS(x *mathx.Matrix, y []float64) (*OLSResult, error) {
	n, p := x.Rows, x.Cols
	if n != len(y) {
		return nil, fmt.Errorf("regress: %d rows but %d responses", n, len(y))
	}
	if n <= p+1 {
		return nil, fmt.Errorf("%w: n=%d, p=%d", ErrTooFewRows, n, p)
	}
	span := obs.StartSpan("regress.ols")
	defer span.End()
	// Standardize predictors so columns on wildly different scales
	// (bytes vs percentages) stay numerically well-conditioned, then
	// build the design matrix with a leading intercept column.
	means := make([]float64, p)
	scales := make([]float64, p)
	design := mathx.NewMatrix(n, p+1)
	for j := 0; j < p; j++ {
		z, mean, scale := mathx.Standardize(x.Col(j))
		means[j], scales[j] = mean, scale
		for i := 0; i < n; i++ {
			design.Set(i, j+1, z[i])
		}
	}
	for i := 0; i < n; i++ {
		design.Set(i, 0, 1)
	}
	beta, ridged, err := mathx.SolveLeastSquares(design, y)
	if err != nil {
		return nil, err
	}
	if ridged {
		obs.Default().Counter("chaos_ols_ridge_fallbacks_total", nil).Inc()
	}
	pred, err := design.MulVec(beta)
	if err != nil {
		return nil, err
	}
	rss, tss := 0.0, 0.0
	ybar := mathx.Mean(y)
	for i := range y {
		d := y[i] - pred[i]
		rss += d * d
		t := y[i] - ybar
		tss += t * t
	}
	dof := float64(n - p - 1)
	sigma2 := rss / dof
	res := &OLSResult{
		Coef:    make([]float64, p),
		StdErr:  make([]float64, p+1),
		PValues: make([]float64, p+1),
		Sigma2:  sigma2,
		N:       n,
		Ridged:  ridged,
	}
	// Back-transform coefficients to the original predictor scale.
	res.Intercept = beta[0]
	for j := 0; j < p; j++ {
		res.Coef[j] = beta[j+1] / scales[j]
		res.Intercept -= res.Coef[j] * means[j]
	}
	if tss > 0 {
		res.R2 = 1 - rss/tss
	}
	// Standard errors from (XᵀX)⁻¹ in the standardized space, divided by
	// the column scales (Wald statistics are scale-invariant). If the
	// design is collinear even after standardization, every coefficient
	// is treated as insignificant (p = 1) — the conservative behavior
	// stepwise elimination wants. The intercept's standard error is
	// reported in the standardized space; its p-value is never used.
	if inv, err := mathx.XtXInverse(design); err == nil {
		for j := 0; j <= p; j++ {
			v := sigma2 * inv.At(j, j)
			if v < 0 {
				v = 0
			}
			se := math.Sqrt(v)
			p := mathx.WaldPValue(beta[j], se)
			if j > 0 {
				se /= scales[j-1]
			}
			res.StdErr[j] = se
			res.PValues[j] = p
		}
	} else {
		for j := 0; j <= p; j++ {
			res.PValues[j] = 1
		}
	}
	return res, nil
}

// StepwiseResult reports the outcome of backward stepwise elimination.
type StepwiseResult struct {
	Kept    []int      // indices (into the original columns) that survived
	Dropped []int      // indices eliminated, in elimination order
	Fit     *OLSResult // final fit over the kept columns
}

// Stepwise performs backward stepwise elimination: starting from all
// columns of x, it repeatedly refits OLS and removes the predictor with the
// largest Wald p-value above alpha until every remaining predictor is
// significant (or only one remains and minKeep is reached).
//
// This is step 4 (per machine) and step 6 (per cluster) of the paper's
// Algorithm 1.
func Stepwise(x *mathx.Matrix, y []float64, alpha float64, minKeep int) (*StepwiseResult, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("regress: stepwise alpha %g out of (0,1)", alpha)
	}
	if minKeep < 1 {
		minKeep = 1
	}
	span := obs.StartSpan("regress.stepwise")
	defer span.End()
	kept := make([]int, x.Cols)
	for j := range kept {
		kept[j] = j
	}
	var dropped []int
	for {
		if len(kept) == 0 {
			return &StepwiseResult{Kept: kept, Dropped: dropped}, nil
		}
		sub := x.SelectCols(kept)
		fit, err := OLS(sub, y)
		if err != nil {
			return nil, err
		}
		if len(kept) <= minKeep {
			return &StepwiseResult{Kept: kept, Dropped: dropped, Fit: fit}, nil
		}
		// Find the least significant predictor (skip the intercept at
		// PValues[0]).
		worst, worstP := -1, alpha
		for j := 0; j < len(kept); j++ {
			if p := fit.PValues[j+1]; p > worstP {
				worst, worstP = j, p
			}
		}
		if worst < 0 {
			return &StepwiseResult{Kept: kept, Dropped: dropped, Fit: fit}, nil
		}
		dropped = append(dropped, kept[worst])
		kept = append(kept[:worst], kept[worst+1:]...)
	}
}
