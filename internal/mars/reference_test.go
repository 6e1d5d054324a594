package mars

import (
	"math"
	"sort"

	"repro/internal/mathx"
)

// refFit is a copy of the dense fitter Fit replaced: every forward step
// rebuilds the Gram matrix of the basis, scores each candidate hinge pair
// as two full n-row columns with 2m+5 full-length dot products, and the
// backward pass re-dots every trial subset. It runs on one goroutine.
// TestFitMatchesReference holds Fit to it bit for bit; it assumes the
// inputs Fit accepts (finite, at least 10 rows, one column).
//
// It also reports what the fit went through, so that the test can check
// its designs cover each case: the forward pass reaching MaxTerms, and a
// candidate column with an overflowed (+Inf) entry.
func refFit(x *mathx.Matrix, y []float64, opts Options) (m *Model, hitMaxTerms, sawInf bool) {
	opts = opts.withDefaults()
	f := &refFitter{x: x, y: y, opts: opts, n: x.Rows, p: x.Cols}
	f.prepareKnots()
	f.forward()
	model := f.backward()
	model.NumInputs = f.p
	return model, len(f.terms) >= opts.MaxTerms, f.sawInf
}

type refFitter struct {
	x     *mathx.Matrix
	y     []float64
	opts  Options
	n, p  int
	knots [][]float64
	terms []Term
	cols  [][]float64
	yty   float64

	sawInf bool
}

func (f *refFitter) prepareKnots() {
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

func (f *refFitter) forward() {
	f.terms = []Term{{}}
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
		var bestParent, bestVar int
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

func (f *refFitter) hingePair(parent []float64, v int, knot float64) (u, w []float64) {
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
	if math.IsInf(su, 1) || math.IsInf(sw, 1) {
		for i := range u {
			if math.IsInf(u[i], 1) || math.IsInf(w[i], 1) {
				f.sawInf = true
			}
		}
	}
	if su == 0 || sw == 0 {
		return nil, nil
	}
	return u, w
}

func (f *refFitter) gram() (*mathx.Matrix, []float64) {
	m := len(f.cols)
	g := mathx.NewMatrix(m, m)
	xty := make([]float64, m)
	for a := 0; a < m; a++ {
		for b := a; b < m; b++ {
			s := refDot(f.cols[a], f.cols[b])
			g.Set(a, b, s)
			g.Set(b, a, s)
		}
		xty[a] = refDot(f.cols[a], f.y)
	}
	return g, xty
}

func (f *refFitter) rssFor(gram *mathx.Matrix, xty []float64, u, w []float64) (float64, bool) {
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
				s := refDot(f.cols[a], nc)
				g.Set(a, col, s)
				g.Set(col, a, s)
			}
			for l := 0; l <= k; l++ {
				s := refDot(newCols[l], nc)
				g.Set(m+l, col, s)
				g.Set(col, m+l, s)
			}
			rhs[col] = refDot(nc, f.y)
		}
	}
	lambda := refApplyRidge(g)
	beta, err := mathx.CholeskySolve(g, rhs, 1e-3)
	if err != nil {
		return 0, false
	}
	return refRidgedRSS(f.yty, beta, rhs, lambda), true
}

func refRidgedRSS(yty float64, beta, rhs []float64, lambda float64) float64 {
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

func refApplyRidge(g *mathx.Matrix) float64 {
	n := g.Rows
	if n < 2 {
		return 0
	}
	mean := 0.0
	for i := 1; i < n; i++ {
		mean += g.At(i, i)
	}
	mean /= float64(n - 1)
	add := 1e-3 * mean
	for i := 1; i < n; i++ {
		g.Set(i, i, g.At(i, i)+add)
	}
	return add
}

func refDot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func (f *refFitter) gcv(rss float64, nTerms int) float64 {
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

func (f *refFitter) backward() *Model {
	type subset struct {
		idx []int
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
				s := refDot(f.cols[idx[a]], f.cols[idx[b]])
				g.Set(a, b, s)
				g.Set(b, a, s)
			}
			rhs[a] = refDot(f.cols[idx[a]], f.y)
		}
		lambda := refApplyRidge(g)
		beta, err := mathx.CholeskySolve(g, rhs, 1e-3)
		if err != nil {
			return 0, nil, false
		}
		return refRidgedRSS(f.yty, beta, rhs, lambda), beta, true
	}
	best := subset{idx: all, gcv: math.Inf(1)}
	if rss, _, ok := rssOf(all); ok {
		best.gcv = f.gcv(rss, len(all))
	}
	cur := append([]int(nil), all...)
	for len(cur) > 1 {
		bestLocal := subset{gcv: math.Inf(1)}
		for drop := 0; drop < len(cur); drop++ {
			if cur[drop] == 0 {
				continue
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
		return &Model{Terms: []Term{{}}, Coef: []float64{mathx.Mean(f.y)}, GCV: best.gcv}
	}
	terms := make([]Term, len(best.idx))
	for i, id := range best.idx {
		terms[i] = f.terms[id]
	}
	return &Model{Terms: terms, Coef: beta, GCV: best.gcv}
}
