// Package mars implements Friedman's Multivariate Adaptive Regression
// Splines (Annals of Statistics, 1991), the fitting engine behind the
// paper's piecewise linear (Eq. 2) and quadratic (Eq. 3) power models.
//
// A MARS model is a weighted sum of basis terms; each term is a product of
// hinge functions max(0, ±(x_v − t)). The forward pass greedily adds hinge
// pairs that most reduce residual sum of squares; the backward pass prunes
// terms using generalized cross-validation (GCV).
//
// Degree 1 yields a continuous piecewise-linear additive model; degree 2
// permits pairwise products of hinges, which is exactly the paper's
// "quadratic" model.
package mars

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mathx"
	"repro/internal/obs"
)

// Hinge is one factor of a basis term: max(0, x−Knot) when Sign > 0, or
// max(0, Knot−x) when Sign < 0, applied to input variable Var.
type Hinge struct {
	Var  int     `json:"var"`
	Knot float64 `json:"knot"`
	Sign int     `json:"sign"`
}

// Eval evaluates the hinge at x (the value of variable Var).
func (h Hinge) Eval(x float64) float64 {
	if h.Sign >= 0 {
		if x > h.Knot {
			return x - h.Knot
		}
		return 0
	}
	if x < h.Knot {
		return h.Knot - x
	}
	return 0
}

// Term is a product of hinge factors. An empty factor list is the
// intercept term (constant 1).
type Term struct {
	Factors []Hinge `json:"factors"`
}

// Eval evaluates the term on a full input row.
func (t Term) Eval(row []float64) float64 {
	v := 1.0
	for _, h := range t.Factors {
		v *= h.Eval(row[h.Var])
		if v == 0 {
			return 0
		}
	}
	return v
}

// Degree returns the number of hinge factors in the term.
func (t Term) Degree() int { return len(t.Factors) }

// usesVar reports whether the term already contains variable v.
func (t Term) usesVar(v int) bool {
	for _, h := range t.Factors {
		if h.Var == v {
			return true
		}
	}
	return false
}

// Model is a fitted MARS model: ŷ = Σ Coef[i]·Terms[i](x).
type Model struct {
	Terms []Term    `json:"terms"`
	Coef  []float64 `json:"coef"`
	GCV   float64   `json:"gcv"`
	// NumInputs is the width of rows the model expects.
	NumInputs int `json:"num_inputs"`
}

// Predict evaluates the model on one input row.
func (m *Model) Predict(row []float64) float64 {
	y := 0.0
	for i, t := range m.Terms {
		y += m.Coef[i] * t.Eval(row)
	}
	return y
}

// NumTerms returns the number of basis terms including the intercept.
func (m *Model) NumTerms() int { return len(m.Terms) }

// Options controls the MARS fit.
type Options struct {
	// MaxDegree is the largest number of hinge factors per term: 1 for
	// piecewise linear, 2 for the quadratic model. Default 1.
	MaxDegree int
	// MaxTerms bounds the number of basis terms grown in the forward
	// pass (including the intercept). Default 15.
	MaxTerms int
	// MaxKnots bounds candidate knots per variable, taken at quantiles
	// of the observed values. Default 10.
	MaxKnots int
	// SelfInteraction permits a degree-2 term to reuse the same
	// variable with a different knot, giving x² style curvature as in
	// the paper's Eq. 3. Only meaningful when MaxDegree >= 2.
	SelfInteraction bool
}

func (o Options) withDefaults() Options {
	if o.MaxDegree <= 0 {
		o.MaxDegree = 1
	}
	if o.MaxTerms <= 0 {
		o.MaxTerms = 15
	}
	if o.MaxKnots <= 0 {
		o.MaxKnots = 10
	}
	return o
}

// ridge is the relative L2 penalty on basis coefficients, as a fraction of
// the mean Gram diagonal. Hinge bases can be nearly collinear, and
// unpenalized least squares then picks huge cancelling coefficients that
// extrapolate terribly; a small ridge selects the small-norm solution
// instead.
const ridge = 1e-3

// Fit builds a MARS model for responses y over the rows of x.
func Fit(x *mathx.Matrix, y []float64, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	n, p := x.Rows, x.Cols
	if n != len(y) {
		return nil, fmt.Errorf("mars: %d rows but %d responses", n, len(y))
	}
	if n < 10 {
		return nil, fmt.Errorf("mars: need at least 10 observations, got %d", n)
	}
	if p == 0 {
		return nil, fmt.Errorf("mars: no input variables")
	}

	span := obs.StartSpan("mars.fit")
	f := &fitter{x: x, y: y, opts: opts, n: n, p: p}
	f.prepareKnots()
	f.forward()
	model := f.backward()
	model.NumInputs = p
	span.End()
	return model, nil
}

// fitter carries the working state of one MARS fit.
type fitter struct {
	x    *mathx.Matrix
	y    []float64
	opts Options
	n, p int

	knots [][]float64 // candidate knots per variable

	terms []Term      // current basis
	cols  [][]float64 // evaluated basis columns, cols[i][row]
	yty   float64
}

// prepareKnots picks candidate knots at quantiles of each variable's
// observed values, skipping duplicates and extremes.
func (f *fitter) prepareKnots() {
	f.knots = make([][]float64, f.p)
	for v := 0; v < f.p; v++ {
		vals := f.x.Col(v)
		sort.Float64s(vals)
		uniq := vals[:0]
		for i, x := range vals {
			if i == 0 || x != uniq[len(uniq)-1] {
				uniq = append(uniq, x)
			}
		}
		if len(uniq) < 3 {
			// Constant or near-constant variable: no usable knots.
			continue
		}
		k := f.opts.MaxKnots
		if k > len(uniq)-2 {
			k = len(uniq) - 2
		}
		ks := make([]float64, 0, k)
		for i := 1; i <= k; i++ {
			idx := i * (len(uniq) - 1) / (k + 1)
			if idx == 0 || idx == len(uniq)-1 {
				continue
			}
			kv := uniq[idx]
			if len(ks) == 0 || kv != ks[len(ks)-1] {
				ks = append(ks, kv)
			}
		}
		f.knots[v] = ks
	}
}

// forward grows the basis with the greedy RSS-minimizing hinge pairs.
func (f *fitter) forward() {
	f.terms = []Term{{}} // intercept
	ones := make([]float64, f.n)
	for i := range ones {
		ones[i] = 1
	}
	f.cols = [][]float64{ones}
	for _, yi := range f.y {
		f.yty += yi * yi
	}

	for len(f.terms) < f.opts.MaxTerms {
		bestRSS := math.Inf(1)
		var bestParent int
		var bestVar int
		var bestKnot float64
		found := false

		gram, xty := f.gram()
		baseRSS, ok := f.rssFor(gram, xty, nil, nil)
		if !ok {
			break
		}

		for parent := 0; parent < len(f.terms); parent++ {
			pt := f.terms[parent]
			if pt.Degree() >= f.opts.MaxDegree {
				continue
			}
			pcol := f.cols[parent]
			for v := 0; v < f.p; v++ {
				if pt.usesVar(v) && !f.opts.SelfInteraction {
					continue
				}
				for _, knot := range f.knots[v] {
					u, w := f.hingePair(pcol, v, knot)
					if u == nil {
						continue
					}
					rss, ok := f.rssFor(gram, xty, u, w)
					if !ok {
						continue
					}
					if rss < bestRSS {
						bestRSS, bestParent, bestVar, bestKnot = rss, parent, v, knot
						found = true
					}
				}
			}
		}
		// Require a meaningful relative improvement to keep growing.
		if !found || bestRSS > baseRSS*(1-1e-4) {
			break
		}
		pt := f.terms[bestParent]
		pos := Term{Factors: append(append([]Hinge(nil), pt.Factors...), Hinge{Var: bestVar, Knot: bestKnot, Sign: +1})}
		neg := Term{Factors: append(append([]Hinge(nil), pt.Factors...), Hinge{Var: bestVar, Knot: bestKnot, Sign: -1})}
		u, w := f.hingePair(f.cols[bestParent], bestVar, bestKnot)
		f.terms = append(f.terms, pos, neg)
		f.cols = append(f.cols, u, w)
	}
}

// hingePair returns the two candidate columns parent·max(0,x−t) and
// parent·max(0,t−x), or nils when either column is all zeros (degenerate).
func (f *fitter) hingePair(parent []float64, v int, knot float64) (u, w []float64) {
	u = make([]float64, f.n)
	w = make([]float64, f.n)
	var su, sw float64
	for i := 0; i < f.n; i++ {
		if parent[i] == 0 {
			continue
		}
		xv := f.x.At(i, v)
		if xv > knot {
			u[i] = parent[i] * (xv - knot)
			su += u[i] * u[i]
		} else if xv < knot {
			w[i] = parent[i] * (knot - xv)
			sw += w[i] * w[i]
		}
	}
	if su == 0 || sw == 0 {
		return nil, nil
	}
	return u, w
}

// gram returns the Gram matrix BᵀB and vector Bᵀy of the current basis.
func (f *fitter) gram() (*mathx.Matrix, []float64) {
	m := len(f.cols)
	g := mathx.NewMatrix(m, m)
	xty := make([]float64, m)
	for a := 0; a < m; a++ {
		ca := f.cols[a]
		for b := a; b < m; b++ {
			cb := f.cols[b]
			s := 0.0
			for i := 0; i < f.n; i++ {
				s += ca[i] * cb[i]
			}
			g.Set(a, b, s)
			g.Set(b, a, s)
		}
		s := 0.0
		for i := 0; i < f.n; i++ {
			s += ca[i] * f.y[i]
		}
		xty[a] = s
	}
	return g, xty
}

// rssFor computes the residual sum of squares of the least-squares fit on
// the current basis optionally augmented with columns u and w. gram/xty
// describe the current basis only.
func (f *fitter) rssFor(gram *mathx.Matrix, xty []float64, u, w []float64) (float64, bool) {
	m := len(f.cols)
	extra := 0
	if u != nil {
		extra = 2
	}
	g := mathx.NewMatrix(m+extra, m+extra)
	rhs := make([]float64, m+extra)
	for a := 0; a < m; a++ {
		copy(g.Data[a*(m+extra):a*(m+extra)+m], gram.Data[a*m:(a+1)*m])
		rhs[a] = xty[a]
	}
	if extra == 2 {
		newCols := [][]float64{u, w}
		for k, nc := range newCols {
			col := m + k
			for a := 0; a < m; a++ {
				s := dot(f.cols[a], nc)
				g.Set(a, col, s)
				g.Set(col, a, s)
			}
			for l := 0; l <= k; l++ {
				s := dot(newCols[l], nc)
				g.Set(m+l, col, s)
				g.Set(col, m+l, s)
			}
			rhs[col] = dot(nc, f.y)
		}
	}
	lambda := applyRidge(g)
	beta, err := mathx.CholeskySolve(g, rhs, 1e-3)
	if err != nil {
		return 0, false
	}
	rss := ridgedRSS(f.yty, beta, rhs, lambda)
	return rss, true
}

// ridgedRSS recovers the exact residual sum of squares of a ridge
// solution: for (G0+λI')β = rhs (intercept unpenalized), the true RSS is
// yᵀy − βᵀrhs − λ·Σ_{a≥1} β_a².
func ridgedRSS(yty float64, beta, rhs []float64, lambda float64) float64 {
	rss := yty
	for a := range beta {
		rss -= beta[a] * rhs[a]
	}
	for a := 1; a < len(beta); a++ {
		rss -= lambda * beta[a] * beta[a]
	}
	if rss < 0 {
		rss = 0
	}
	return rss
}

// applyRidge adds the relative L2 penalty to a Gram matrix diagonal and
// returns the absolute penalty used. The first basis (the intercept) is
// left unpenalized so constant fits remain exact.
func applyRidge(g *mathx.Matrix) float64 {
	n := g.Rows
	if n < 2 {
		return 0
	}
	mean := 0.0
	for i := 1; i < n; i++ {
		mean += g.At(i, i)
	}
	mean /= float64(n - 1)
	add := ridge * mean
	for i := 1; i < n; i++ {
		g.Set(i, i, g.At(i, i)+add)
	}
	return add
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// gcv computes Friedman's generalized cross-validation criterion for a
// model with the given RSS and number of terms. Its cost per knot,
// Friedman's d, is 3 for interaction models and 2 for additive ones.
func (f *fitter) gcv(rss float64, nTerms int) float64 {
	penalty := 2.0
	if f.opts.MaxDegree > 1 {
		penalty = 3
	}
	c := float64(nTerms) + penalty*float64(nTerms-1)/2
	nf := float64(f.n)
	d := 1 - c/nf
	if d <= 0 {
		return math.Inf(1)
	}
	return rss / nf / (d * d)
}

// backward prunes terms one at a time, keeping the subset with the best
// GCV, then fits final coefficients on that subset.
func (f *fitter) backward() *Model {
	type subset struct {
		idx []int // indices into f.terms
		gcv float64
	}
	all := make([]int, len(f.terms))
	for i := range all {
		all[i] = i
	}
	rssOf := func(idx []int) (float64, []float64, bool) {
		m := len(idx)
		g := mathx.NewMatrix(m, m)
		rhs := make([]float64, m)
		for a := 0; a < m; a++ {
			for b := a; b < m; b++ {
				s := dot(f.cols[idx[a]], f.cols[idx[b]])
				g.Set(a, b, s)
				g.Set(b, a, s)
			}
			rhs[a] = dot(f.cols[idx[a]], f.y)
		}
		lambda := applyRidge(g)
		beta, err := mathx.CholeskySolve(g, rhs, 1e-3)
		if err != nil {
			return 0, nil, false
		}
		return ridgedRSS(f.yty, beta, rhs, lambda), beta, true
	}

	best := subset{idx: all, gcv: math.Inf(1)}
	if rss, _, ok := rssOf(all); ok {
		best.gcv = f.gcv(rss, len(all))
	}
	cur := append([]int(nil), all...)
	for len(cur) > 1 {
		// Try removing each non-intercept term; keep the removal with
		// the lowest GCV.
		bestLocal := subset{gcv: math.Inf(1)}
		for drop := 0; drop < len(cur); drop++ {
			if cur[drop] == 0 {
				continue // never drop the intercept
			}
			trial := make([]int, 0, len(cur)-1)
			trial = append(trial, cur[:drop]...)
			trial = append(trial, cur[drop+1:]...)
			rss, _, ok := rssOf(trial)
			if !ok {
				continue
			}
			if g := f.gcv(rss, len(trial)); g < bestLocal.gcv {
				bestLocal = subset{idx: trial, gcv: g}
			}
		}
		if bestLocal.idx == nil {
			break
		}
		cur = bestLocal.idx
		if bestLocal.gcv < best.gcv {
			best = subset{idx: append([]int(nil), cur...), gcv: bestLocal.gcv}
		}
	}

	_, beta, ok := rssOf(best.idx)
	if !ok || beta == nil {
		// Degenerate: fall back to the intercept-only model.
		mean := mathx.Mean(f.y)
		return &Model{Terms: []Term{{}}, Coef: []float64{mean}, GCV: best.gcv}
	}
	terms := make([]Term, len(best.idx))
	for i, id := range best.idx {
		terms[i] = f.terms[id]
	}
	return &Model{Terms: terms, Coef: beta, GCV: best.gcv}
}
