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

// The lasso's work, summed over every LassoSelect in the process.
var (
	lassoFits         = obs.Default().Counter("chaos_lasso_fits_total", nil)
	lassoNotConverged = obs.Default().Counter("chaos_lasso_not_converged_total", nil)
	lassoDots         = obs.Default().Counter("chaos_lasso_dots_total", nil)
	lassoSkipped      = obs.Default().Counter("chaos_lasso_skipped_total", nil)
)

// LassoSelect is step 3 of the paper's Algorithm 1, which discards
// irrelevant features in high-dimensional counter spaces and keeps "on the
// order of 10" of them. It walks a lasso path from λmax, the smallest λ
// that zeroes every coefficient, down to pathRatio·λmax, and returns the
// columns of x kept by the first (most regularized) fit with at least
// targetK nonzero coefficients, or by the least-regularized fit if none has
// that many. λ is on the standardized scale; the path follows glmnet
// (Friedman, Hastie & Tibshirani, J. Stat. Softw. 2010).
//
// It adds the fits it ran, those that stopped at the sweep cap, and the
// coordinate visits it computed and skipped (see coordinateDescent) to
// chaos_lasso_{fits,not_converged,dots,skipped}_total.
func LassoSelect(x *mathx.Matrix, y []float64, targetK int) ([]int, error) {
	span := obs.StartSpan("regress.lasso_select")
	defer span.End()
	sel, st, err := lassoSelect(x, y, targetK)
	lassoFits.Add(float64(st.fits))
	lassoNotConverged.Add(float64(st.notConverged))
	lassoDots.Add(float64(st.dots))
	lassoSkipped.Add(float64(st.skipped))
	return sel, err
}

// lassoStats is the work one LassoSelect did.
type lassoStats struct {
	fits, notConverged, dots, skipped int
}

func lassoSelect(x *mathx.Matrix, y []float64, targetK int) ([]int, lassoStats, error) {
	var st lassoStats
	if x.Rows != len(y) {
		return nil, st, fmt.Errorf("regress: %d rows but %d responses", x.Rows, len(y))
	}
	if x.Rows < 2 {
		return nil, st, fmt.Errorf("regress: lasso needs at least 2 observations, got %d", x.Rows)
	}
	p := newLassoPath(x, y)
	var sel []int
	for k := 0; k < pathLen; k++ {
		lambda := p.lmax * math.Pow(pathRatio, float64(k)/float64(pathLen-1))
		st.fits++
		if _, converged := p.coordinateDescent(lambda); !converged {
			st.notConverged++
		}
		// A feature is selected when its coefficient is nonzero in the
		// original units, β_j/σ_j.
		sel = nil
		for j, b := range p.beta {
			if b != 0 && b/p.scales[j] != 0 {
				sel = append(sel, j)
			}
		}
		if len(sel) >= targetK {
			break
		}
	}
	st.dots, st.skipped = p.dots, p.skipped
	return sel, st, nil
}

// lassoPath is what every fit on one design shares: its columns
// standardized once, the centred response yc, λmax, and the seeds of the
// screening bounds (see coordinateDescent).
type lassoPath struct {
	cols   [][]float64
	scales []float64
	yc     []float64
	lmax   float64

	resid, beta []float64 // the last fit's residual and coefficients

	g     float64 // γ_{n+16}
	eta   float64 // (n+8)·2⁻¹⁰⁷⁴
	ynorm float64 // ≥ ‖yc‖
	seed  []float64
	bound []colBound

	// The current fit's travel (see coordinateDescent) and the largest
	// step of its current sweep.
	travel, maxDelta float64

	dots, skipped int // column visits computed and skipped, over all fits
}

// colBound is column j's screening state: while β_j stays 0, the dot
// product a visit to it would compute is at most h + e·(travel − at) in
// magnitude.
type colBound struct {
	h, e, at float64
}

// newLassoPath standardizes x's columns, centres y and forms every
// column's |⟨z_j, yc⟩|: the largest, over n, is λmax, and each seeds its
// column's bound, since every fit starts at resid = yc. When λmax is 0,
// the first sweep of every fit moves no coefficient, so every fit keeps
// nothing whatever its λ.
func newLassoPath(x *mathx.Matrix, y []float64) *lassoPath {
	n, p := x.Rows, x.Cols
	nf := float64(n)
	lp := &lassoPath{
		cols:   make([][]float64, p),
		scales: make([]float64, p),
		yc:     make([]float64, n),
		resid:  make([]float64, n),
		beta:   make([]float64, p),
		seed:   make([]float64, p),
		bound:  make([]colBound, p),
		g:      gammaN(n + 16),
		eta:    float64(n+8) * math.SmallestNonzeroFloat64,
	}
	for j := range lp.cols {
		lp.cols[j], _, lp.scales[j] = mathx.Standardize(x.Col(j))
	}
	ybar := mathx.Mean(y)
	for i, v := range y {
		lp.yc[i] = v - ybar
	}
	lp.ynorm = lp.normBound(lp.yc)
	for j, cj := range lp.cols {
		dot := 0.0
		for i, c := range cj {
			dot += c * lp.yc[i]
		}
		a := math.Abs(dot)
		if a/nf > lp.lmax {
			lp.lmax = a / nf
		}
		e := lp.normBound(cj) * (1 + lp.g)
		lp.bound[j].e = e
		lp.seed[j] = a + lp.eta + 2*lp.g*e*lp.ynorm
	}
	return lp
}

// gammaN is γ_k = k·u/(1−k·u) for the unit roundoff u = 2⁻⁵³.
func gammaN(k int) float64 {
	const u = 0x1p-53
	return float64(k) * u / (1 - float64(k)*u)
}

// normBound returns an upper bound on ‖v‖ (see coordinateDescent).
func (p *lassoPath) normBound(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s+float64(len(v))*math.SmallestNonzeroFloat64) * (1 + p.g)
}

// coordinateDescent fits the lasso at lambda by cyclic coordinate descent
// over unit-variance columns (Friedman et al.'s glmnet update), from a cold
// start: β = 0 and resid = yc. It leaves the fit in p.beta and p.resid and
// returns the sweeps it ran and whether the last of them moved no
// coefficient by sweepTol or more; at most maxSweeps run.
//
// Screening. A visit to column j while β_j = 0 moves β_j only if
// |fl(⟨z_j, resid⟩)/n| > λ. The kernel skips the visit when a bound proves
// it would not, so every skipped visit is one that would have set d = 0:
// β, resid and the sweep count are bit for bit those of computing every
// visit. A nonzero β_j is always computed.
//
// The bound. Let u = 2⁻⁵³ and γ_k = k·u/(1−k·u). A dot product of n terms
// summed left to right is within γ_n·‖x‖·‖y‖ of its exact value (Higham,
// Accuracy and Stability of Numerical Algorithms, §3.1). If column j last
// computed A = |fl⟨z_j, r_s⟩| at residual r_s, then at a later residual
// r_t, by Cauchy–Schwarz,
//
//	|fl⟨z_j, r_t⟩| ≤ A + ‖z_j‖·‖r_t − r_s‖ + γ_n·‖z_j‖·(‖r_s‖ + ‖r_t‖).
//
// travel is a running upper bound on the distance resid has moved since
// the fit began: each update adds a bound on ‖Δresid‖ and rounds the sum
// up, so ‖r_t − r_s‖ ≤ travel_t − travel_s and ‖r‖ ≤ ‖yc‖ + travel. With
// e_j ≥ (1+γ_n)·‖z_j‖ that gives
//
//	|fl⟨z_j, r_t⟩| ≤ h_j + e_j·(travel_t − travel_s),
//	h_j = A + 2γ_n·‖z_j‖·(‖yc‖ + travel_s),
//
// and a visit is skipped when the right side is under λn: rounding is
// monotone, so then |fl(⟨z_j, r_t⟩)/n| ≤ λ and softThreshold returns 0.
// Every fit starts at r_s = yc with travel 0, so newLassoPath's dots seed
// h_j. A column whose β_j returns to 0 gets h_j = +Inf: resid has moved by
// its last step since the dot was taken, and its next visit is computed.
//
// Rounding of the bookkeeping. Every γ_n above is taken as g = γ_{n+16}:
//   - ‖z_j‖ and ‖yc‖ are bounded by fl(√(fl(Σv²) + n·2⁻¹⁰⁷⁴))·(1+g): the
//     sum of squares is within γ_n of exact, n·2⁻¹⁰⁷⁴ covers squares that
//     underflow, and 1+g covers γ_n and the four roundings after the sum;
//   - resid_i ← fl(resid_i − fl(d·z_ki)) moves resid by at most
//     (1+u)²·|d|·‖z_k‖ + u·‖resid‖ + n·2⁻¹⁰⁷⁵, so each update adds
//     step = |d|·e_k + g·(‖yc‖ + travel) + η to travel, where e_k and g
//     leave room for the roundings of step itself, and math.Nextafter
//     rounds the sum up, so travel_t − travel_s ≥ Σ step exactly;
//   - the test h_j + e_j·(travel − travel_s) < λn·(1−g) adds and multiplies
//     nonnegative numbers (travel ≥ travel_s, and a difference of two
//     floats is rounded once), so its left side is computed within a
//     factor 1−γ_6 of the exact value, and λn·(1−g) within 1+γ_3 of its
//     own: g > γ_n + γ_6 + γ_3 covers both;
//   - η = (n+8)·2⁻¹⁰⁷⁴, added to h_j and to each travel step, covers the
//     products that underflow, each off by at most 2⁻¹⁰⁷⁵.
//
// NaN in any term, or +Inf on the left, makes the test false, so such a
// visit is computed.
//
// Passes. A dot product summed left to right is bound by the latency of
// its additions, not by memory. So a step d of column k is subtracted from
// resid in the pass that takes the next computed visit's dot, and when
// that visit's β is 0 the pass also takes the dot of the visit after it:
// a zero coefficient almost always stays 0, which leaves resid as it was
// for the second dot. When it does move, the second dot is discarded and
// that visit recomputed. Each dot and each resid entry still gets the
// operations, in the order, of one visit at a time.
func (p *lassoPath) coordinateDescent(lambda float64) (sweeps int, converged bool) {
	cols, resid, beta, bound := p.cols, p.resid, p.beta, p.bound
	end := len(cols)
	copy(resid, p.yc)
	clear(beta)
	for j := range bound {
		bound[j].h, bound[j].at = p.seed[j], 0
	}
	p.travel = 0
	lo := lambda * float64(len(resid)) * (1 - p.g)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		p.maxDelta = 0
		// owed is the column of the last step d, which resid still owes:
		// the pass that takes the next dot subtracts d·owed first.
		var owed []float64
		var d float64
		for j := 0; ; {
			// The next visit the screen cannot skip, and when its β is 0,
			// and so almost always stays 0, the one after it too: both dots
			// are then taken over the same resid in one pass.
			k1, s1 := p.nextVisit(j, lo)
			k2, s2 := -1, 0
			var second []float64
			if k1 < end && beta[k1] == 0 {
				if k2, s2 = p.nextVisit(k1+1, lo); k2 < end {
					second = cols[k2]
				}
			}
			p.skipped += s1
			if k1 == end {
				if owed != nil {
					pass(resid, owed, d, nil, nil)
				}
				break
			}
			dot1, dot2 := pass(resid, owed, d, cols[k1], second)
			owed = nil
			j, d = k1+1, p.visit(k1, dot1, lambda)
			if d != 0 {
				owed = cols[k1] // and k2's dot, if taken, predates the step
			} else if k2 >= 0 {
				p.skipped += s2
				if k2 == end {
					break
				}
				j, d = k2+1, p.visit(k2, dot2, lambda)
				if d != 0 {
					owed = cols[k2]
				}
			}
		}
		if p.maxDelta < sweepTol {
			return sweep + 1, true
		}
	}
	return maxSweeps, false
}

// nextVisit returns the first column from j on that the screen cannot
// skip, or len(p.cols), and how many columns it skipped on the way.
func (p *lassoPath) nextVisit(j int, lo float64) (k, skipped int) {
	for k = j; k < len(p.cols); k++ {
		b := &p.bound[k]
		if p.beta[k] != 0 || !(b.h+b.e*(p.travel-b.at) < lo) {
			break
		}
		skipped++
	}
	return k, skipped
}

// visit finishes a computed visit to column j, given dot = fl⟨z_j,
// resid⟩: it moves β_j, updates column j's bound, travel and maxDelta,
// and returns β_j's step d, which the caller has still to subtract from
// resid as d·z_j.
func (p *lassoPath) visit(j int, dot, lambda float64) float64 {
	p.dots++
	b := &p.bound[j]
	// rho = (1/n) Σ x_ij (resid_i + x_ij β_j); unit variance columns make
	// the denominator 1.
	rho := dot/float64(len(p.resid)) + p.beta[j]
	newBeta := softThreshold(rho, lambda)
	d := newBeta - p.beta[j]
	if newBeta == 0 {
		if d == 0 {
			b.h, b.at = math.Abs(dot)+p.eta+2*p.g*b.e*(p.ynorm+p.travel), p.travel
		} else {
			b.h = math.Inf(1) // back to 0: resid moves by d·z_j after this dot
		}
	}
	if d != 0 {
		p.beta[j] = newBeta
		if a := math.Abs(d); a > p.maxDelta {
			p.maxDelta = a
		}
		step := math.Abs(d)*b.e + p.g*(p.ynorm+p.travel) + p.eta
		p.travel = math.Nextafter(p.travel+step, math.Inf(1))
	}
	return d
}

// pass subtracts d·u from resid when u is not nil, then returns the dot
// products of a and b with the new resid (0 for a nil a or b). Each dot is
// summed left to right and each resid entry rounded as in separate loops,
// so the bits are theirs.
func pass(resid, u []float64, d float64, a, b []float64) (da, db float64) {
	switch {
	case a == nil:
		u = u[:len(resid)]
		for i := range resid {
			resid[i] -= d * u[i]
		}
	case u == nil && b == nil:
		a = a[:len(resid)]
		for i, r := range resid {
			da += a[i] * r
		}
	case u == nil:
		a, b = a[:len(resid)], b[:len(resid)]
		for i, r := range resid {
			da += a[i] * r
			db += b[i] * r
		}
	case b == nil:
		u, a = u[:len(resid)], a[:len(resid)]
		for i := range resid {
			r := resid[i] - d*u[i]
			resid[i] = r
			da += a[i] * r
		}
	default:
		u, a, b = u[:len(resid)], a[:len(resid)], b[:len(resid)]
		for i := range resid {
			r := resid[i] - d*u[i]
			resid[i] = r
			da += a[i] * r
			db += b[i] * r
		}
	}
	return da, db
}
