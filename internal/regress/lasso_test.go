package regress

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/obs"
)

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ z, g, want float64 }{
		{3, 1, 2},
		{-3, 1, -2},
		{0.5, 1, 0},
		{-0.5, 1, 0},
		{1, 1, 0},
	}
	for _, c := range cases {
		if got := softThreshold(c.z, c.g); got != c.want {
			t.Errorf("softThreshold(%v,%v) = %v, want %v", c.z, c.g, got, c.want)
		}
	}
}

// fitAt runs coordinateDescent from a cold start at lambda on x's
// standardized columns and y centred, and returns the coefficients in the
// original units and whether the fit converged.
func fitAt(x *mathx.Matrix, y []float64, lambda float64) ([]float64, bool) {
	p := newLassoPath(x, y)
	_, converged := p.coordinateDescent(lambda)
	coef := make([]float64, x.Cols)
	for j, b := range p.beta {
		coef[j] = b / p.scales[j]
	}
	return coef, converged
}

func support(coef []float64) []int {
	var out []int
	for j, c := range coef {
		if c != 0 {
			out = append(out, j)
		}
	}
	return out
}

func TestLassoSelectsTrueSupport(t *testing.T) {
	// 3 real predictors out of 20.
	r := rand.New(rand.NewSource(10))
	n, p := 400, 20
	x := mathx.NewMatrix(n, p)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			x.Set(i, j, r.NormFloat64())
		}
		y[i] = 10 + 4*x.At(i, 0) - 3*x.At(i, 7) + 2*x.At(i, 13) + r.NormFloat64()*0.2
	}
	coef, converged := fitAt(x, y, 0.5)
	if !converged {
		t.Error("lasso did not converge")
	}
	if sel := support(coef); !reflect.DeepEqual(sel, []int{0, 7, 13}) {
		t.Errorf("selected = %v, want exactly the 3 true features [0 7 13]", sel)
	}
	if sel, err := LassoSelect(x, y, 3); err != nil || !reflect.DeepEqual(sel, []int{0, 7, 13}) {
		t.Errorf("LassoSelect(k=3) = %v, %v; want [0 7 13]", sel, err)
	}
}

func TestLassoZeroLambdaApproachesOLS(t *testing.T) {
	x, y := synthData(11, 300, []float64{2, -1}, 0.05)
	coef, _ := fitAt(x, y, 0)
	if math.Abs(coef[0]-2) > 0.05 || math.Abs(coef[1]+1) > 0.05 {
		t.Errorf("lambda=0 coefs = %v, want ~[2 -1]", coef)
	}
}

func TestLassoValidation(t *testing.T) {
	x := mathx.NewMatrix(5, 2)
	for _, c := range []struct {
		name string
		x    *mathx.Matrix
		y    []float64
	}{
		{"more responses than rows", x, make([]float64, 6)},
		{"fewer responses than rows", x, []float64{1, 2, 3}},
		{"too few rows", mathx.NewMatrix(1, 2), []float64{1}},
	} {
		if _, err := LassoSelect(c.x, c.y, 1); err == nil {
			t.Errorf("%s: expected an error", c.name)
		}
	}
}

func TestLassoMaxLambdaKillsEverything(t *testing.T) {
	x, y := synthData(12, 200, []float64{3, -2, 1}, 0.1)
	lmax := refMaxLambda(x, y)
	if lmax <= 0 {
		t.Fatalf("lmax = %v", lmax)
	}
	if coef, _ := fitAt(x, y, lmax*1.0001); len(support(coef)) != 0 {
		t.Errorf("at lambda >= lmax all coefficients should be zero, got %v", support(coef))
	}
	// Just below lmax at least one coefficient should appear.
	if coef, _ := fitAt(x, y, lmax*0.9); len(support(coef)) == 0 {
		t.Error("just below lmax, expected at least one active coefficient")
	}
	// LassoSelect's path starts at lmax: its first fit keeps nothing, and
	// its second, at 0.79·lmax, already keeps a feature.
	if sel, st := lassoSelectStats(t, x, y, 0); len(sel) != 0 || st.fits != 1 {
		t.Errorf("targetK=0: selected %v after %d fits, want none after 1", sel, st.fits)
	}
	if sel, st := lassoSelectStats(t, x, y, 1); len(sel) == 0 || st.fits != 2 {
		t.Errorf("targetK=1: selected %v after %d fits, want some after 2", sel, st.fits)
	}
}

func TestLassoPathMonotoneSupport(t *testing.T) {
	x, y := synthData(13, 300, []float64{5, 3, -2, 1, 0.5}, 0.2)
	lmax := refMaxLambda(x, y)
	// Lambdas decrease along a 12-point path; support sizes should be
	// non-decreasing in the aggregate (allow small local wiggle of 1).
	prev := -1
	var last []int
	for k := 0; k < 12; k++ {
		coef, _ := fitAt(x, y, lmax*math.Pow(1e-3, float64(k)/11))
		last = support(coef)
		if n := len(last); prev >= 0 && n < prev-1 {
			t.Errorf("support shrank sharply at step %d: %d -> %d", k, prev, n)
		}
		prev = len(last)
	}
	if len(last) != 5 {
		t.Errorf("least-regularized fit selected %v, want all 5", last)
	}
	// No fit can keep 6 of 5 columns, so LassoSelect walks the whole path
	// and returns the least-regularized fit's selection.
	sel, st := lassoSelectStats(t, x, y, 6)
	if len(sel) != 5 || st.fits != pathLen {
		t.Errorf("targetK=6: selected %v after %d fits, want all 5 after %d",
			sel, st.fits, pathLen)
	}
}

func TestLassoSelectTargetK(t *testing.T) {
	x, y := synthData(15, 400, []float64{6, 5, 4, 3, 2, 1}, 0.1)
	sel, err := LassoSelect(x, y, 3)
	if err != nil {
		t.Fatalf("LassoSelect: %v", err)
	}
	if len(sel) < 3 {
		t.Errorf("selected %v, want at least 3", sel)
	}
}

// Property: lasso coefficients shrink (in L1 norm) as lambda grows.
func TestLassoShrinkageProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(16))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, p := 120, 5
		x := mathx.NewMatrix(n, p)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				x.Set(i, j, r.NormFloat64())
			}
			y[i] = 2*x.At(i, 0) - 3*x.At(i, 2) + r.NormFloat64()
		}
		l1 := func(coef []float64) float64 {
			s := 0.0
			for _, c := range coef {
				s += math.Abs(c)
			}
			return s
		}
		small, _ := fitAt(x, y, 0.05)
		big, _ := fitAt(x, y, 0.8)
		return l1(big) <= l1(small)+1e-9
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestLassoSelectMatchesPerFitPath checks LassoSelect against refPath, a
// direct transcription of the path that standardizes x again for every fit
// and for λmax, and runs all 30 cold-start fits before picking one. Over 400
// designs mixing duplicate, collinear, constant and badly scaled columns,
// and every targetK from 0 to p+1, selections must be identical, and it
// must count the fits the rule needed and those among them that hit the
// sweep cap.
func TestLassoSelectMatchesPerFitPath(t *testing.T) {
	capped := 0
	for seed := int64(0); seed < 400; seed++ {
		x, y := randomDesign(seed)
		path := refPath(x, y)
		for targetK := 0; targetK <= x.Cols+1; targetK++ {
			fits := len(path)
			for k, fit := range path {
				if len(fit.sel) >= targetK {
					fits = k + 1
					break
				}
			}
			notConverged := 0
			for _, fit := range path[:fits] {
				if !fit.converged {
					notConverged++
				}
			}
			if targetK == x.Cols+1 {
				capped += notConverged
			}
			want := path[fits-1].sel

			got, st := lassoSelectStats(t, x, y, targetK)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (%dx%d), targetK %d: LassoSelect = %v, per-fit path = %v",
					seed, x.Rows, x.Cols, targetK, got, want)
			}
			if st.fits != fits || st.notConverged != notConverged {
				t.Fatalf("seed %d, targetK %d: fits=%d not_converged=%d, want %d and %d",
					seed, targetK, st.fits, st.notConverged, fits, notConverged)
			}
		}
	}
	if capped == 0 {
		t.Error("no design hit the sweep cap; the not_converged count went unchecked")
	}
}

// randomDesign draws a small design whose columns are, at random, normal,
// discrete (few distinct values, like a counter), duplicates or scaled
// copies of an earlier column, collinear combinations of two earlier
// columns, constant, or scaled by 1e±6. The response is a sparse linear
// model of the columns plus noise, or occasionally constant.
func randomDesign(seed int64) (*mathx.Matrix, []float64) {
	r := rand.New(rand.NewSource(seed))
	n, p := 4+r.Intn(57), 1+r.Intn(8)
	x := mathx.NewMatrix(n, p)
	for j := 0; j < p; j++ {
		kind := r.Intn(7)
		if j == 0 && kind >= 2 && kind <= 4 {
			kind = 0 // copies need an earlier column
		}
		a, b := r.Intn(j+1), r.Intn(j+1)
		wa, wb, off := r.NormFloat64(), r.NormFloat64(), r.NormFloat64()*10
		scale := math.Pow(10, float64(6*(r.Intn(3)-1)))
		for i := 0; i < n; i++ {
			var v float64
			switch kind {
			case 0:
				v = r.NormFloat64()
			case 1:
				v = float64(r.Intn(3))
			case 2:
				v = x.At(i, a)
			case 3:
				v = wa*x.At(i, a) + off
			case 4:
				v = wa*x.At(i, a) + wb*x.At(i, b)
			case 5:
				v = off
			case 6:
				v = r.NormFloat64() * scale
			}
			x.Set(i, j, v)
		}
	}
	y := make([]float64, n)
	if r.Intn(12) == 0 {
		for i := range y {
			y[i] = 42
		}
		return x, y
	}
	coef := make([]float64, p)
	for j := range coef {
		if r.Intn(2) == 0 {
			coef[j] = r.NormFloat64() * 3
		}
	}
	noise := []float64{0, 0.01, 1}[r.Intn(3)]
	for i := range y {
		y[i] = 5 + r.NormFloat64()*noise
		for j, c := range coef {
			y[i] += c * x.At(i, j)
		}
	}
	return x, y
}

// lassoSelectStats runs the selection LassoSelect makes and returns the
// work it counted.
func lassoSelectStats(t *testing.T, x *mathx.Matrix, y []float64, targetK int) ([]int, lassoStats) {
	t.Helper()
	sel, st, err := lassoSelect(x, y, targetK)
	if err != nil {
		t.Fatalf("LassoSelect: %v", err)
	}
	return sel, st
}

// TestLassoSelectCountsWork: LassoSelect adds exactly the work its
// selection did to the four lasso counters.
func TestLassoSelectCountsWork(t *testing.T) {
	x, y := wideDesign(3, false)
	counters := []*obs.Counter{lassoFits, lassoNotConverged, lassoDots, lassoSkipped}
	before := make([]float64, len(counters))
	for i, c := range counters {
		before[i] = c.Value()
	}
	sel, err := LassoSelect(x, y, 12)
	if err != nil {
		t.Fatal(err)
	}
	want, st := lassoSelectStats(t, x, y, 12)
	if !reflect.DeepEqual(sel, want) {
		t.Fatalf("LassoSelect = %v, lassoSelect = %v", sel, want)
	}
	for i, n := range []int{st.fits, st.notConverged, st.dots, st.skipped} {
		if got := counters[i].Value() - before[i]; got != float64(n) {
			t.Errorf("counter %d grew by %v, want %d", i, got, n)
		}
	}
	if st.fits == 0 || st.dots == 0 || st.skipped == 0 {
		t.Errorf("stats %+v: want fits, dots and skipped all counted", st)
	}
}

// refFit is one fit of refPath: the selected columns, whether the fit
// converged within its sweep budget, the sweeps it ran and its
// coefficients on the standardized scale.
type refFit struct {
	sel       []int
	converged bool
	sweeps    int
	beta      []float64
}

// refPath fits the lasso at 30 geometric steps from refMaxLambda(x, y) (1
// when that is 0) down to 1e-3 times it, each from a zero start with at
// most 2,000 sweeps and a 1e-7 tolerance, and standardizing x afresh.
func refPath(x *mathx.Matrix, y []float64) []refFit {
	lmax := refMaxLambda(x, y)
	if lmax == 0 {
		lmax = 1
	}
	out := make([]refFit, 0, 30)
	for k := 0; k < 30; k++ {
		frac := float64(k) / float64(30-1)
		out = append(out, refLasso(x, y, lmax*math.Pow(1e-3, frac)))
	}
	return out
}

// refMaxLambda returns the smallest λ, on the standardized scale, at which
// every lasso coefficient is zero.
func refMaxLambda(x *mathx.Matrix, y []float64) float64 {
	n, p := x.Rows, x.Cols
	if n == 0 || p == 0 {
		return 0
	}
	ybar := mathx.Mean(y)
	maxAbs := 0.0
	for j := 0; j < p; j++ {
		z, _, _ := mathx.Standardize(x.Col(j))
		dot := 0.0
		for i := 0; i < n; i++ {
			dot += z[i] * (y[i] - ybar)
		}
		if a := math.Abs(dot) / float64(n); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs
}

// refLasso fits the lasso at lambda by cyclic coordinate descent on
// freshly standardized columns and selects the columns whose coefficient
// is nonzero in the original units.
func refLasso(x *mathx.Matrix, y []float64, lambda float64) refFit {
	n, p := x.Rows, x.Cols
	cols := make([][]float64, p)
	scales := make([]float64, p)
	for j := 0; j < p; j++ {
		cols[j], _, scales[j] = mathx.Standardize(x.Col(j))
	}
	ybar := mathx.Mean(y)
	resid := make([]float64, n)
	for i := range resid {
		resid[i] = y[i] - ybar
	}
	beta := make([]float64, p)
	nf := float64(n)
	fit := refFit{beta: beta}
	for iter := 0; iter < 2000; iter++ {
		fit.sweeps++
		maxDelta := 0.0
		for j := 0; j < p; j++ {
			cj := cols[j]
			rho := 0.0
			for i := 0; i < n; i++ {
				rho += cj[i] * resid[i]
			}
			rho = rho/nf + beta[j]
			newBeta := softThreshold(rho, lambda)
			if d := newBeta - beta[j]; d != 0 {
				for i := 0; i < n; i++ {
					resid[i] -= d * cj[i]
				}
				if a := math.Abs(d); a > maxDelta {
					maxDelta = a
				}
				beta[j] = newBeta
			}
		}
		if maxDelta < 1e-7 {
			fit.converged = true
			break
		}
	}
	for j := 0; j < p; j++ {
		if beta[j] == 0 {
			continue
		}
		if c := beta[j] / scales[j]; c != 0 {
			fit.sel = append(fit.sel, j)
		}
	}
	return fit
}

// TestCoordinateDescentMatchesUnscreened holds the screened kernel to
// refLasso, which computes every visit, on designs shaped like Algorithm
// 1's per-machine fits: 200–700 rows and 40–120 columns, most of them
// counters the power does not depend on. At every λ on each design's path,
// β must match bit for bit, after the same number of sweeps and with the
// same convergence flag. -short leaves out design 0, whose fits hit the
// sweep cap and take most of the test's time.
func TestCoordinateDescentMatchesUnscreened(t *testing.T) {
	var dots, skipped, capped int
	for seed := int64(0); seed < 6; seed++ {
		nearDup := seed == 0
		if nearDup && testing.Short() {
			continue
		}
		x, y := wideDesign(seed, nearDup)
		p := newLassoPath(x, y)
		for k := 0; k < pathLen; k++ {
			lambda := p.lmax * math.Pow(pathRatio, float64(k)/float64(pathLen-1))
			sweeps, converged := p.coordinateDescent(lambda)
			want := refLasso(x, y, lambda)
			if sweeps != want.sweeps || converged != want.converged {
				t.Fatalf("seed %d (%dx%d), fit %d: %d sweeps (converged %v), unscreened %d (%v)",
					seed, x.Rows, x.Cols, k, sweeps, converged, want.sweeps, want.converged)
			}
			for j, b := range p.beta {
				if math.Float64bits(b) != math.Float64bits(want.beta[j]) {
					t.Fatalf("seed %d (%dx%d), fit %d: β_%d = %v, unscreened %v",
						seed, x.Rows, x.Cols, k, j, b, want.beta[j])
				}
			}
			if !converged {
				capped++
			}
		}
		dots += p.dots
		skipped += p.skipped
	}
	t.Logf("%d visits computed, %d skipped, %d fits at the sweep cap", dots, skipped, capped)
	if skipped == 0 {
		t.Error("screening skipped no visit")
	}
	if capped == 0 && !testing.Short() {
		t.Error("no fit hit the sweep cap")
	}
}

// wideDesign draws a design like one (machine, workload) group of
// Algorithm 1: four latent load signals drive the response, a tenth of the
// columns are noisy copies of them, and the rest are counters the response
// does not depend on: small counts, skewed rates, slow drifts and
// constants. With nearDup, the last two columns copy one signal almost
// exactly (|r| > 0.9999), so the fits that take that pair in crawl along
// it and some hit the sweep cap.
func wideDesign(seed int64, nearDup bool) (*mathx.Matrix, []float64) {
	r := rand.New(rand.NewSource(seed))
	n, p := 200+r.Intn(501), 40+r.Intn(81)
	const signals = 4
	sig := make([][]float64, signals)
	for s := range sig {
		sig[s] = make([]float64, n)
		level := r.Float64()
		for i := range sig[s] {
			if r.Intn(20) == 0 {
				level = r.Float64()
			}
			sig[s][i] = level + 0.05*r.NormFloat64()
		}
	}
	x := mathx.NewMatrix(n, p)
	for j := 0; j < p; j++ {
		a := r.Intn(signals)
		scale := math.Pow(10, float64(r.Intn(7)-2))
		kind := r.Intn(20)
		noise := []float64{0.1, 0.3}[r.Intn(2)]
		if nearDup && j >= p-2 {
			kind, a, noise = 0, 0, 1e-3
		}
		drift := r.NormFloat64()
		for i := 0; i < n; i++ {
			var v float64
			switch kind {
			case 0, 1:
				v = sig[a][i] + noise*r.NormFloat64()
			case 2:
				v = drift * float64(i) / float64(n)
			case 3:
				v = 7
			case 4, 5, 6, 7, 8, 9, 10:
				v = r.ExpFloat64()
			default:
				v = float64(r.Intn(1 + r.Intn(8)))
			}
			x.Set(i, j, v*scale)
		}
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = 80 + 30*sig[0][i] + 12*sig[1][i]*sig[1][i] + 4*sig[2][i] + r.NormFloat64()
	}
	return x, y
}
