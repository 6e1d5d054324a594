package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Errorf("StdDev = %v, want 2", s)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty/short slices should yield zero")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%v, %v)", min, max)
	}
	min, max = MinMax(nil)
	if min != 0 || max != 0 {
		t.Errorf("MinMax(nil) = (%v, %v)", min, max)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {-5, 1}, {150, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Errorf("Median interpolation failed")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) should be 0")
	}
	// Input must not be reordered.
	orig := []float64{5, 1, 3}
	Percentile(orig, 50)
	if orig[0] != 5 || orig[1] != 1 || orig[2] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if r := Correlation(xs, ys); !almostEqual(r, 1, 1e-12) {
		t.Errorf("perfect positive correlation = %v", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := Correlation(xs, neg); !almostEqual(r, -1, 1e-12) {
		t.Errorf("perfect negative correlation = %v", r)
	}
	if r := Correlation(xs, []float64{5, 5, 5, 5}); r != 0 {
		t.Errorf("constant series correlation = %v, want 0", r)
	}
	if r := Correlation(xs, []float64{1, 2}); r != 0 {
		t.Errorf("mismatched length correlation = %v, want 0", r)
	}
}

func TestStandardize(t *testing.T) {
	z, mean, scale := Standardize([]float64{1, 2, 3, 4, 5})
	if mean != 3 {
		t.Errorf("mean = %v", mean)
	}
	if !almostEqual(Mean(z), 0, 1e-12) || !almostEqual(StdDev(z), 1, 1e-12) {
		t.Errorf("standardized mean/sd = %v/%v", Mean(z), StdDev(z))
	}
	if scale <= 0 {
		t.Errorf("scale = %v", scale)
	}
	zc, _, sc := Standardize([]float64{7, 7, 7})
	if sc != 1 {
		t.Errorf("constant column scale = %v, want 1", sc)
	}
	for _, v := range zc {
		if v != 0 {
			t.Errorf("constant column standardized to %v, want 0", v)
		}
	}
}

func TestNormalSurvival(t *testing.T) {
	if !almostEqual(NormalSurvival(0), 0.5, 1e-12) {
		t.Errorf("NormalSurvival(0) = %v", NormalSurvival(0))
	}
	if !almostEqual(NormalSurvival(1.96), 0.025, 1e-3) {
		t.Errorf("NormalSurvival(1.96) = %v", NormalSurvival(1.96))
	}
	if NormalSurvival(10) > 1e-20 {
		t.Errorf("far tail should be tiny: %v", NormalSurvival(10))
	}
}

func TestWaldPValue(t *testing.T) {
	if p := WaldPValue(0, 1); !almostEqual(p, 1, 1e-12) {
		t.Errorf("zero coefficient p = %v, want 1", p)
	}
	if p := WaldPValue(1.96, 1); !almostEqual(p, 0.05, 2e-3) {
		t.Errorf("z=1.96 p = %v, want ~0.05", p)
	}
	if p := WaldPValue(5, 0); p != 1 {
		t.Errorf("zero se p = %v, want 1", p)
	}
	if p := WaldPValue(5, math.NaN()); p != 1 {
		t.Errorf("NaN se p = %v, want 1", p)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

func TestDeriveSeedStability(t *testing.T) {
	a := DeriveSeed(42, "machine-0")
	b := DeriveSeed(42, "machine-0")
	c := DeriveSeed(42, "machine-1")
	d := DeriveSeed(43, "machine-0")
	if a != b {
		t.Error("DeriveSeed is not deterministic")
	}
	if a == c || a == d {
		t.Error("DeriveSeed collisions across names/parents")
	}
}

func TestTruncatedNormalBounds(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := TruncatedNormal(r, 10, 2)
		if v < 10-3*2 || v > 10+3*2 {
			t.Fatalf("sample %v outside 3 sigma", v)
		}
	}
	if TruncatedNormal(r, 5, 0) != 5 {
		t.Error("zero stddev should return mean")
	}
}

// Property: Pearson correlation is symmetric and within [-1, 1].
func TestCorrelationProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		rxy := Correlation(xs, ys)
		ryx := Correlation(ys, xs)
		return rxy == ryx && rxy >= -1-1e-12 && rxy <= 1+1e-12
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: correlation is invariant under positive affine transforms.
func TestCorrelationAffineInvariance(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(4))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 25
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = xs[i]*2 + r.NormFloat64()
		}
		scaled := make([]float64, n)
		a := 0.5 + r.Float64()*10
		b := r.NormFloat64() * 100
		for i := range xs {
			scaled[i] = a*xs[i] + b
		}
		return almostEqual(Correlation(xs, ys), Correlation(scaled, ys), 1e-9)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
