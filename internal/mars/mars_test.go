package mars

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestHingeEval(t *testing.T) {
	pos := Hinge{Var: 0, Knot: 2, Sign: +1}
	neg := Hinge{Var: 0, Knot: 2, Sign: -1}
	cases := []struct {
		x, wantPos, wantNeg float64
	}{
		{0, 0, 2},
		{2, 0, 0},
		{5, 3, 0},
	}
	for _, c := range cases {
		if got := pos.Eval(c.x); got != c.wantPos {
			t.Errorf("pos.Eval(%v) = %v, want %v", c.x, got, c.wantPos)
		}
		if got := neg.Eval(c.x); got != c.wantNeg {
			t.Errorf("neg.Eval(%v) = %v, want %v", c.x, got, c.wantNeg)
		}
	}
}

func TestTermEval(t *testing.T) {
	intercept := Term{}
	if intercept.Eval([]float64{1, 2}) != 1 {
		t.Error("intercept term should evaluate to 1")
	}
	prod := Term{Factors: []Hinge{
		{Var: 0, Knot: 1, Sign: +1},
		{Var: 1, Knot: 3, Sign: -1},
	}}
	// (2-1) * (3-2) = 1.
	if got := prod.Eval([]float64{2, 2}); got != 1 {
		t.Errorf("product term = %v, want 1", got)
	}
	// First factor zero short-circuits.
	if got := prod.Eval([]float64{0, 2}); got != 0 {
		t.Errorf("zero factor = %v, want 0", got)
	}
}

func TestFitValidation(t *testing.T) {
	x := mathx.NewMatrix(5, 1)
	if _, err := Fit(x, make([]float64, 4), Options{}); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := Fit(x, make([]float64, 5), Options{}); err == nil {
		t.Error("expected too-few-rows error")
	}
	if _, err := Fit(mathx.NewMatrix(20, 0), make([]float64, 20), Options{}); err == nil {
		t.Error("expected no-variables error")
	}
	// Non-finite data is refused, naming the row and column: a NaN
	// response used to give Coef [NaN], and the nonzero-row sums are
	// exact only for finite columns.
	x, y := genPiecewise(29, 50, 0.1)
	for _, c := range []struct {
		row, col int // col -1: the response
		v        float64
		want     string
	}{
		{3, -1, math.NaN(), "non-finite response NaN at row 3"},
		{8, -1, math.Inf(1), "non-finite response +Inf at row 8"},
		{5, 0, math.Inf(1), "non-finite value +Inf at row 5, column 0"},
		{6, 0, math.Inf(-1), "non-finite value -Inf at row 6, column 0"},
		{7, 0, math.NaN(), "non-finite value NaN at row 7, column 0"},
	} {
		bx, by := x.Clone(), append([]float64(nil), y...)
		if c.col < 0 {
			by[c.row] = c.v
		} else {
			bx.Set(c.row, c.col, c.v)
		}
		_, err := Fit(bx, by, Options{MaxDegree: 2})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %v, want one containing %q", err, c.want)
		}
	}
}

// genPiecewise builds data from a known piecewise-linear function of one
// variable with a kink at 5.
func genPiecewise(seed int64, n int, noise float64) (*mathx.Matrix, []float64) {
	r := rand.New(rand.NewSource(seed))
	x := mathx.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := r.Float64() * 10
		x.Set(i, 0, v)
		f := 2 * v
		if v > 5 {
			f = 10 + 6*(v-5) // slope change at the knot
		}
		y[i] = f + r.NormFloat64()*noise
	}
	return x, y
}

func rmse(m *Model, x *mathx.Matrix, y []float64) float64 {
	s := 0.0
	for i := 0; i < x.Rows; i++ {
		d := m.Predict(x.Row(i)) - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(x.Rows))
}

func TestFitPiecewiseLinear(t *testing.T) {
	x, y := genPiecewise(30, 400, 0.1)
	m, err := Fit(x, y, Options{MaxDegree: 1, MaxTerms: 11, MaxKnots: 20})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if e := rmse(m, x, y); e > 0.5 {
		t.Errorf("training RMSE = %v, want < 0.5", e)
	}
	// Out-of-sample check.
	xt, yt := genPiecewise(31, 200, 0.1)
	if e := rmse(m, xt, yt); e > 0.7 {
		t.Errorf("test RMSE = %v, want < 0.7", e)
	}
	if m.NumTerms() < 2 {
		t.Errorf("model has %d terms, expected hinge terms beyond intercept", m.NumTerms())
	}
	if m.NumInputs != 1 {
		t.Errorf("NumInputs = %d", m.NumInputs)
	}
}

func TestFitLinearFunctionStaysSimple(t *testing.T) {
	// Pure linear data: a handful of hinge pairs can represent a line;
	// the key property is near-zero error, and GCV pruning should keep
	// the model modest.
	r := rand.New(rand.NewSource(32))
	n := 300
	x := mathx.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := r.Float64() * 4
		x.Set(i, 0, v)
		y[i] = 3 + 2*v + r.NormFloat64()*0.05
	}
	m, err := Fit(x, y, Options{MaxDegree: 1})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if e := rmse(m, x, y); e > 0.2 {
		t.Errorf("RMSE on linear data = %v", e)
	}
	if m.NumTerms() > 9 {
		t.Errorf("GCV kept %d terms on linear data, expected pruning", m.NumTerms())
	}
}

func TestFitInteraction(t *testing.T) {
	// y depends on the product x0*x1 (for positive values): degree-2
	// MARS should fit it far better than degree-1.
	r := rand.New(rand.NewSource(33))
	n := 500
	x := mathx.NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := r.Float64() * 4
		b := r.Float64() * 4
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = a*b + r.NormFloat64()*0.05
	}
	m1, err := Fit(x, y, Options{MaxDegree: 1, MaxTerms: 13})
	if err != nil {
		t.Fatalf("Fit d1: %v", err)
	}
	m2, err := Fit(x, y, Options{MaxDegree: 2, MaxTerms: 13})
	if err != nil {
		t.Fatalf("Fit d2: %v", err)
	}
	e1, e2 := rmse(m1, x, y), rmse(m2, x, y)
	if e2 >= e1 {
		t.Errorf("degree-2 RMSE %v should beat degree-1 RMSE %v on interaction data", e2, e1)
	}
	// Degree-2 terms should actually appear.
	has2 := false
	for _, term := range m2.Terms {
		if term.Degree() == 2 {
			has2 = true
		}
	}
	if !has2 {
		t.Error("degree-2 fit contains no interaction terms")
	}
}

func TestFitSelfInteractionQuadratic(t *testing.T) {
	// y = x² needs curvature; self-interaction hinges capture it better
	// than additive piecewise linear with few knots.
	r := rand.New(rand.NewSource(34))
	n := 400
	x := mathx.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := r.Float64()*6 - 3
		x.Set(i, 0, v)
		y[i] = v*v + r.NormFloat64()*0.05
	}
	m, err := Fit(x, y, Options{MaxDegree: 2, SelfInteraction: true, MaxTerms: 13, MaxKnots: 8})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if e := rmse(m, x, y); e > 0.4 {
		t.Errorf("self-interaction RMSE = %v on quadratic data", e)
	}
}

func TestFitConstantInput(t *testing.T) {
	// A constant variable offers no knots; model should degrade to the
	// mean rather than fail.
	n := 50
	x := mathx.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 7)
		y[i] = 3
	}
	m, err := Fit(x, y, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if got := m.Predict([]float64{7}); math.Abs(got-3) > 1e-9 {
		t.Errorf("constant fit predicts %v, want 3", got)
	}
}

func TestFitRespectsMaxTerms(t *testing.T) {
	x, y := genPiecewise(35, 300, 0.5)
	m, err := Fit(x, y, Options{MaxTerms: 5, MaxKnots: 20})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if m.NumTerms() > 5 {
		t.Errorf("model has %d terms, MaxTerms was 5", m.NumTerms())
	}
}

func TestModelContinuity(t *testing.T) {
	// MARS models are continuous: check no jumps around knots.
	x, y := genPiecewise(36, 400, 0.1)
	m, err := Fit(x, y, Options{MaxKnots: 20})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for _, term := range m.Terms {
		for _, h := range term.Factors {
			lo := m.Predict([]float64{h.Knot - 1e-9})
			hi := m.Predict([]float64{h.Knot + 1e-9})
			if math.Abs(hi-lo) > 1e-6 {
				t.Errorf("discontinuity at knot %v: %v vs %v", h.Knot, lo, hi)
			}
		}
	}
}

// Property: predictions are piecewise-linear in each variable — evaluating
// at the midpoint of two nearby points in a knot-free interval equals the
// average of the endpoint predictions.
func TestPiecewiseLinearityProperty(t *testing.T) {
	x, y := genPiecewise(37, 300, 0.2)
	m, err := Fit(x, y, Options{MaxKnots: 8})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	knots := map[float64]bool{}
	for _, term := range m.Terms {
		for _, h := range term.Factors {
			knots[h.Knot] = true
		}
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(38))}
	prop := func(seedF uint32) bool {
		r := rand.New(rand.NewSource(int64(seedF)))
		a := r.Float64() * 10
		b := a + 0.01
		// Skip straddling intervals containing a knot.
		for k := range knots {
			if k > a && k < b {
				return true
			}
		}
		mid := (a + b) / 2
		lin := (m.Predict([]float64{a}) + m.Predict([]float64{b})) / 2
		return math.Abs(m.Predict([]float64{mid})-lin) < 1e-9
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkFitDegree1(b *testing.B) {
	x, y := genPiecewise(40, 600, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(x, y, Options{MaxDegree: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitDegree2(b *testing.B) {
	r := rand.New(rand.NewSource(41))
	n := 600
	x := mathx.NewMatrix(n, 5)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 5; j++ {
			x.Set(i, j, r.Float64()*10)
		}
		y[i] = x.At(i, 0)*x.At(i, 1) + 2*x.At(i, 2) + r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(x, y, Options{MaxDegree: 2, MaxTerms: 13, MaxKnots: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFitMatchesReference holds Fit to refFit, a copy of the dense fitter
// it replaced, bit for bit: the same terms, the same coefficient bits and
// the same GCV bits. The random designs mix degree 1 and 2, self-interaction
// on and off, tied, constant and duplicated columns, columns that are zero
// on most rows (so most hinge parents are zero there), MaxTerms small
// enough to be reached, and, in every other design, magnitudes from 1e140
// to 1e174 whose hinge products overflow to +Inf.
func TestFitMatchesReference(t *testing.T) {
	designs := 700
	if testing.Short() {
		designs = 400
	}
	r := rand.New(rand.NewSource(24))
	var hitMax, sawInf, degree2 int
	for d := 0; d < designs; d++ {
		x, y, opts := randomDesign(r, d%2 == 1)
		got, err := Fit(x, y, opts)
		if err != nil {
			t.Fatalf("design %d: Fit: %v", d, err)
		}
		want, hit, inf := refFit(x, y, opts)
		if hit {
			hitMax++
		}
		if inf {
			sawInf++
		}
		for _, term := range want.Terms {
			if term.Degree() == 2 {
				degree2++
				break
			}
		}
		if !reflect.DeepEqual(got.Terms, want.Terms) || got.NumInputs != want.NumInputs {
			t.Fatalf("design %d (%dx%d, %+v): terms\n%v\nwant\n%v", d, x.Rows, x.Cols, opts, got.Terms, want.Terms)
		}
		if !sameBits(got.Coef, want.Coef) || !sameBits([]float64{got.GCV}, []float64{want.GCV}) {
			t.Fatalf("design %d (%dx%d, %+v): coef %v gcv %v, want coef %v gcv %v", d, x.Rows, x.Cols, opts, got.Coef, got.GCV, want.Coef, want.GCV)
		}
	}
	if hitMax == 0 || sawInf == 0 || degree2 == 0 {
		t.Errorf("designs too narrow: %d reached MaxTerms, %d overflowed a hinge product, %d kept a degree-2 term", hitMax, sawInf, degree2)
	}
	t.Logf("%d designs: %d reached MaxTerms, %d overflowed a hinge product, %d kept a degree-2 term", designs, hitMax, sawInf, degree2)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// randomDesign draws one test design for TestFitMatchesReference. With
// huge set, each column is scaled by its own factor in [1e140, 1e174], so
// a hinge on one column times a parent on another can overflow, and so
// can a sum of squared hinges.
func randomDesign(r *rand.Rand, huge bool) (*mathx.Matrix, []float64, Options) {
	n := 10 + r.Intn(150)
	p := 1 + r.Intn(4)
	x := mathx.NewMatrix(n, p)
	for j := 0; j < p; j++ {
		kind := r.Intn(7)
		scale := 1.0
		if huge {
			scale = math.Pow(10, float64(140+r.Intn(35)))
		}
		for i := 0; i < n; i++ {
			var v float64
			switch kind {
			case 0:
				v = r.Float64()
			case 1:
				v = r.NormFloat64()
			case 2: // constant
				v = 3
			case 3: // a few tied levels
				v = float64(r.Intn(4))
			case 4: // zero on most rows
				if r.Intn(5) == 0 {
					v = r.ExpFloat64()
				}
			case 5: // skewed, so hinges at high knots are zero on most rows
				v = r.ExpFloat64() * r.ExpFloat64()
			case 6: // a copy of an earlier column, or a level column
				if j > 0 {
					v = x.At(i, r.Intn(j)) / scale
				} else {
					v = float64(i % 3)
				}
			}
			x.Set(i, j, v*scale)
		}
	}
	// A response kinked at a data value of each column, plus one
	// interaction, so the forward pass finds structure of both degrees
	// whatever the columns' scale.
	cut := make([]float64, p)
	for j := range cut {
		cut[j] = x.At(r.Intn(n), j)
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = r.NormFloat64() + 5*math.Sin(float64(i)*0.1)
		for j := 0; j < p; j++ {
			if x.At(i, j) > cut[j] {
				y[i] += float64(j + 1)
			}
		}
		if x.At(i, 0) > cut[0] && x.At(i, p-1) < cut[p-1] {
			y[i] += 4
		}
	}
	degree := 1 + r.Intn(2)
	if huge && r.Intn(4) != 0 {
		degree = 2
	}
	opts := Options{
		MaxDegree:       degree,
		MaxTerms:        []int{0, 3, 4, 5, 7, 17}[r.Intn(6)],
		MaxKnots:        []int{0, 2, 5, 8, 20}[r.Intn(5)],
		SelfInteraction: r.Intn(2) == 0,
	}
	return x, y, opts
}
