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
	"sync"

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

// Fit builds a MARS model for responses y over the rows of x. Every value
// of x and y must be finite.
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
	if err := mathx.CheckFinite(x, y); err != nil {
		return nil, fmt.Errorf("mars: %w", err)
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
//
// Every sum it takes is the one a dense fit takes, bit for bit. Each basis
// column is finite and ≥ 0 (the forward pass never adds a column with an
// overflowed entry), so a dot product with a column term that is zero adds
// a finite value times +0, which is ±0, and adding ±0 to a sum that starts
// at +0 never changes it. Summing only a column's nonzero rows, in
// ascending order, therefore gives the dense sum exactly.
type fitter struct {
	x    *mathx.Matrix
	y    []float64
	opts Options
	n, p int

	knots [][]float64 // candidate knots per variable

	terms []Term // current basis
	// basis holds the evaluated basis row-major, term a of row r at
	// basis[r*stride+a], and nonzero[a] lists the rows where term a is
	// not zero, in ascending order.
	stride  int
	basis   []float64
	nonzero [][]int32
	// gram is BᵀB (stride × stride, the first len(terms) rows and
	// columns in use) and bty is Bᵀy: each forward step adds two
	// columns, and the backward pass takes submatrices.
	gram []float64
	bty  []float64
	yty  float64

	pool sync.Pool // of *workspace, one per concurrent candidate
}

// workspace is the working memory of one candidate's score.
type workspace struct {
	acc []float64 // pairDots' sums
	g   mathx.Matrix
	rhs []float64
}

// candidate is one hinge pair the forward pass may add:
// parent·max(0, x_v − knot) and parent·max(0, knot − x_v).
type candidate struct {
	parent, v int
	knot      float64
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

// forward grows the basis with the greedy RSS-minimizing hinge pairs. Each
// step scores its candidates concurrently into a slice in loop order and
// takes the first strict minimum, as a sequential loop would.
func (f *fitter) forward() {
	// Steps add two terms while fewer than MaxTerms are in, so the basis
	// ends with at most MaxTerms+1.
	f.stride = f.opts.MaxTerms + 1
	f.basis = make([]float64, f.n*f.stride)
	f.gram = make([]float64, f.stride*f.stride)
	f.bty = make([]float64, f.stride)
	f.pool.New = func() any {
		return &workspace{
			acc: make([]float64, 2*(f.stride+2)),
			g:   mathx.Matrix{Data: make([]float64, f.stride*f.stride)},
			rhs: make([]float64, f.stride),
		}
	}

	f.terms = []Term{{}} // intercept
	all := make([]int32, f.n)
	for r := range all {
		all[r] = int32(r)
		f.basis[r*f.stride] = 1
		f.gram[0] += 1
		f.bty[0] += f.y[r]
		f.yty += f.y[r] * f.y[r]
	}
	f.nonzero = [][]int32{all}

	var cands []candidate
	for len(f.terms) < f.opts.MaxTerms {
		m := len(f.terms)
		baseRSS, _, ok := f.subsetRSS(f.allTerms())
		if !ok {
			break
		}

		cands = cands[:0]
		for parent := 0; parent < m; parent++ {
			pt := f.terms[parent]
			if pt.Degree() >= f.opts.MaxDegree {
				continue
			}
			for v := 0; v < f.p; v++ {
				if pt.usesVar(v) && !f.opts.SelfInteraction {
					continue
				}
				for _, knot := range f.knots[v] {
					cands = append(cands, candidate{parent, v, knot})
				}
			}
		}
		rss := make([]float64, len(cands))
		mathx.ParallelFor(len(cands), func(i int) {
			s := f.pool.Get().(*workspace)
			rss[i] = f.score(s, cands[i])
			f.pool.Put(s)
		})
		best, bestRSS := -1, math.Inf(1)
		for i, r := range rss {
			if r < bestRSS {
				best, bestRSS = i, r
			}
		}
		// Require a meaningful relative improvement to keep growing.
		if best < 0 || bestRSS > baseRSS*(1-1e-4) {
			break
		}
		f.addPair(cands[best])
	}
}

// pairDots takes, over the rows where c's parent is nonzero, the sums c's
// pair u, w adds to the Gram system. It returns them as two halves, one
// per column: the column's dot with each of the m current basis columns,
// then with itself, then with y. ok is false when a product overflowed:
// the dense sums would then hold NaN (u·w meets +Inf·0), so such a pair
// can never be chosen.
func (f *fitter) pairDots(s *workspace, c candidate) (u, w []float64, ok bool) {
	m := len(f.terms)
	acc := s.acc[:2*(m+2)]
	clear(acc)
	ok = true
	for _, r := range f.nonzero[c.parent] {
		i := int(r)
		row := f.basis[i*f.stride : i*f.stride+m]
		// The row is u's where x > knot and w's where x < knot, with
		// |x − knot| = knot − x there. Where x equals the knot, h is +0
		// and adds nothing to either half.
		d := f.x.Data[i*f.p+c.v] - c.knot
		off := 0
		if d < 0 {
			off = m + 2
		}
		h := row[c.parent] * math.Abs(d)
		if h > math.MaxFloat64 {
			ok = false
		}
		half := acc[off : off+m+2]
		for a, b := range row {
			half[a] += b * h
		}
		half[m] += h * h
		half[m+1] += h * f.y[i]
	}
	return acc[:m+2], acc[m+2:], ok
}

// score returns the residual sum of squares of the least-squares fit on
// the current basis plus c's pair, or +Inf when the pair cannot be added:
// one of its columns is all zero, a product overflowed, or the system is
// singular.
func (f *fitter) score(s *workspace, c candidate) float64 {
	u, w, ok := f.pairDots(s, c)
	m := len(f.terms)
	if !ok || u[m] == 0 || w[m] == 0 {
		return math.Inf(1)
	}
	k := m + 2
	g := s.g.Data[:k*k]
	for a := 0; a < m; a++ {
		copy(g[a*k:a*k+m], f.gram[a*f.stride:a*f.stride+m])
		g[a*k+m], g[a*k+m+1] = u[a], w[a]
		g[m*k+a], g[(m+1)*k+a] = u[a], w[a]
	}
	// u·w is +0: the two columns of a pair are never both nonzero on one
	// row.
	g[m*k+m], g[m*k+m+1] = u[m], 0
	g[(m+1)*k+m], g[(m+1)*k+m+1] = 0, w[m]
	rhs := s.rhs[:k]
	copy(rhs, f.bty[:m])
	rhs[m], rhs[m+1] = u[m+1], w[m+1]
	s.g.Rows, s.g.Cols = k, k
	rss, _, ok := f.solve(&s.g, rhs)
	if !ok {
		return math.Inf(1)
	}
	return rss
}

// addPair appends c's pair to the basis and its sums to the Gram system.
func (f *fitter) addPair(c candidate) {
	s := f.pool.Get().(*workspace)
	defer f.pool.Put(s)
	u, w, _ := f.pairDots(s, c)
	m := len(f.terms)
	st := f.stride
	for a := 0; a < m; a++ {
		f.gram[a*st+m], f.gram[m*st+a] = u[a], u[a]
		f.gram[a*st+m+1], f.gram[(m+1)*st+a] = w[a], w[a]
	}
	f.gram[m*st+m], f.gram[m*st+m+1] = u[m], 0
	f.gram[(m+1)*st+m], f.gram[(m+1)*st+m+1] = 0, w[m]
	f.bty[m], f.bty[m+1] = u[m+1], w[m+1]

	var nzU, nzW []int32
	for _, r := range f.nonzero[c.parent] {
		row := f.basis[int(r)*st:]
		d := f.x.Data[int(r)*f.p+c.v] - c.knot
		h := row[c.parent] * math.Abs(d)
		switch {
		case h == 0: // x is at the knot, or the product underflowed
		case d > 0:
			row[m] = h
			nzU = append(nzU, r)
		default:
			row[m+1] = h
			nzW = append(nzW, r)
		}
	}
	f.nonzero = append(f.nonzero, nzU, nzW)

	pt := f.terms[c.parent]
	pos := Term{Factors: append(append([]Hinge(nil), pt.Factors...), Hinge{Var: c.v, Knot: c.knot, Sign: +1})}
	neg := Term{Factors: append(append([]Hinge(nil), pt.Factors...), Hinge{Var: c.v, Knot: c.knot, Sign: -1})}
	f.terms = append(f.terms, pos, neg)
}

// allTerms lists the indices of the current basis terms.
func (f *fitter) allTerms() []int {
	all := make([]int, len(f.terms))
	for i := range all {
		all[i] = i
	}
	return all
}

// subsetRSS fits the basis terms idx, in ascending order, from
// submatrices of the Gram system and returns the residual sum of squares
// and the coefficients.
func (f *fitter) subsetRSS(idx []int) (float64, []float64, bool) {
	s := f.pool.Get().(*workspace)
	defer f.pool.Put(s)
	k := len(idx)
	g := s.g.Data[:k*k]
	for a, ia := range idx {
		for b, ib := range idx {
			g[a*k+b] = f.gram[ia*f.stride+ib]
		}
		s.rhs[a] = f.bty[ia]
	}
	s.g.Rows, s.g.Cols = k, k
	return f.solve(&s.g, s.rhs[:k])
}

// solve solves the ridged system g·β = rhs, modifying g, and returns its
// residual sum of squares and β.
func (f *fitter) solve(g *mathx.Matrix, rhs []float64) (float64, []float64, bool) {
	lambda := applyRidge(g)
	beta, err := mathx.CholeskySolve(g, rhs, 1e-3)
	if err != nil {
		return 0, nil, false
	}
	return ridgedRSS(f.yty, beta, rhs, lambda), beta, true
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
// GCV, then fits final coefficients on that subset. Every trial subset is
// solved from submatrices of the forward pass's Gram system.
func (f *fitter) backward() *Model {
	type subset struct {
		idx []int // indices into f.terms
		gcv float64
	}
	all := f.allTerms()
	best := subset{idx: all, gcv: math.Inf(1)}
	if rss, _, ok := f.subsetRSS(all); ok {
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
			rss, _, ok := f.subsetRSS(trial)
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

	_, beta, ok := f.subsetRSS(best.idx)
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
