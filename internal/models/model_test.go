package models

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/mathx"
	"repro/internal/trace"
)

// synthNonlinear builds data where power is nonlinear in util and depends
// on frequency state, like a DVFS machine.
func synthNonlinear(seed int64, n int) (*mathx.Matrix, []float64) {
	r := rand.New(rand.NewSource(seed))
	x := mathx.NewMatrix(n, 2) // util [0,100], freq {800, 1600, 2260}
	y := make([]float64, n)
	freqs := []float64{800, 1600, 2260}
	for i := 0; i < n; i++ {
		u := r.Float64() * 100
		f := freqs[r.Intn(3)]
		x.Set(i, 0, u)
		x.Set(i, 1, f)
		fr := f / 2260
		v := 0.6 + 0.4*fr
		y[i] = 25 + 21*fr*v*v*(0.2+0.8*u/100) + r.NormFloat64()*0.2
	}
	return x, y
}

func fitRMSE(t *testing.T, tech Technique, x *mathx.Matrix, y []float64, opts FitOptions) float64 {
	t.Helper()
	m, err := Fit(tech, x, y, opts)
	if err != nil {
		t.Fatalf("Fit(%s): %v", tech, err)
	}
	s := 0.0
	for i := 0; i < x.Rows; i++ {
		d := m.Predict(x.Row(i)) - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(x.Rows))
}

func TestFitAllTechniques(t *testing.T) {
	x, y := synthNonlinear(1, 800)
	lin := fitRMSE(t, TechLinear, x, y, FitOptions{})
	pw := fitRMSE(t, TechPiecewise, x, y, FitOptions{})
	q := fitRMSE(t, TechQuadratic, x, y, FitOptions{})
	sw := fitRMSE(t, TechSwitching, x, y, FitOptions{FreqCol: 1})
	// Nonlinear techniques must beat the linear baseline on DVFS data.
	if q >= lin || sw >= lin {
		t.Errorf("quadratic (%v) and switching (%v) should beat linear (%v)", q, sw, lin)
	}
	if pw > lin*1.05 {
		t.Errorf("piecewise (%v) should not lose badly to linear (%v)", pw, lin)
	}
	// The quadratic model captures the util x freq interaction.
	if q > 1.0 {
		t.Errorf("quadratic RMSE = %v, want small on its native data", q)
	}
}

func TestFitValidation(t *testing.T) {
	x, y := synthNonlinear(2, 50)
	if _, err := Fit(TechQuadratic, x.SelectCols([]int{0}), y, FitOptions{}); err == nil {
		t.Error("quadratic with one feature should fail (paper: requires multiple features)")
	}
	if _, err := Fit(TechSwitching, x.SelectCols([]int{0}), y, FitOptions{}); err == nil {
		t.Error("switching with one feature should fail")
	}
	if _, err := Fit(TechSwitching, x, y, FitOptions{FreqCol: -1}); err == nil {
		t.Error("switching without a frequency column should fail")
	}
	if _, err := Fit(Technique("cubist"), x, y, FitOptions{}); err == nil {
		t.Error("unknown technique should fail")
	}
	if _, err := Fit(TechLinear, mathx.NewMatrix(0, 0), nil, FitOptions{}); err == nil {
		t.Error("empty design should fail")
	}
	// Non-finite training data: every technique must refuse it, naming
	// the row and column, rather than fit NaN coefficients or fit around
	// the row.
	nanY := append([]float64(nil), y...)
	nanY[7] = math.NaN()
	infX := x.Clone()
	infX.Set(4, 0, math.Inf(1))
	negInfX := x.Clone()
	negInfX.Set(9, 1, math.Inf(-1))
	for _, tech := range Techniques() {
		for _, c := range []struct {
			x    *mathx.Matrix
			y    []float64
			want string
		}{
			{x, nanY, "non-finite response NaN at row 7"},
			{infX, y, "non-finite value +Inf at row 4, column 0"},
			{negInfX, y, "non-finite value -Inf at row 9, column 1"},
		} {
			_, err := Fit(tech, c.x, c.y, FitOptions{FreqCol: 1})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: error %v, want one containing %q", tech, err, c.want)
			}
		}
	}
}

func TestSwitchingBinsPerFrequency(t *testing.T) {
	x, y := synthNonlinear(3, 900)
	m, err := Fit(TechSwitching, x, y, FitOptions{FreqCol: 1})
	if err != nil {
		t.Fatal(err)
	}
	sw := m.(*Switching)
	if len(sw.Bins) != 3 {
		t.Errorf("got %d frequency bins, want 3 P-states", len(sw.Bins))
	}
	if sw.NumInputs() != 2 || sw.Technique() != TechSwitching {
		t.Errorf("metadata wrong: %d inputs, %s", sw.NumInputs(), sw.Technique())
	}
	// Each bin should predict its own regime well.
	for i := 0; i < x.Rows; i += 97 {
		row := x.Row(i)
		if p := m.Predict(row); math.Abs(p-y[i]) > 3 {
			t.Errorf("switching prediction %v vs actual %v at row %d", p, y[i], i)
		}
	}
}

func TestSwitchingSingleFrequencyFallsBack(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	n := 200
	x := mathx.NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		u := r.Float64() * 100
		x.Set(i, 0, u)
		x.Set(i, 1, 1600) // constant frequency
		y[i] = 20 + 0.1*u
	}
	m, err := Fit(TechSwitching, x, y, FitOptions{FreqCol: 1})
	if err != nil {
		t.Fatal(err)
	}
	sw := m.(*Switching)
	if len(sw.Bins) != 0 {
		t.Errorf("constant frequency should produce no bins, got %d", len(sw.Bins))
	}
	if p := m.Predict([]float64{50, 1600}); math.Abs(p-25) > 0.5 {
		t.Errorf("fallback prediction = %v, want ~25", p)
	}
}

func TestTechniqueShortCodes(t *testing.T) {
	want := map[Technique]string{TechLinear: "L", TechPiecewise: "P", TechQuadratic: "Q", TechSwitching: "S"}
	for tech, code := range want {
		if tech.Short() != code {
			t.Errorf("%s.Short() = %s", tech, tech.Short())
		}
	}
	if Technique("x").Short() != "?" {
		t.Error("unknown technique should map to ?")
	}
	if len(Techniques()) != 4 {
		t.Error("Techniques() should list all four")
	}
}

func TestFeatureSpecLabels(t *testing.T) {
	cases := []struct {
		spec FeatureSpec
		want string
	}{
		{FeatureSpec{Name: "cpu-only"}, "U"},
		{FeatureSpec{Name: "cluster"}, "C"},
		{FeatureSpec{Name: "general"}, "G"},
		{FeatureSpec{Name: "cluster", LagFreq: true}, "CP"},
		{FeatureSpec{Name: "custom"}, "custom"},
	}
	for _, c := range cases {
		if got := c.spec.Label(); got != c.want {
			t.Errorf("Label(%v) = %q, want %q", c.spec.Name, got, c.want)
		}
	}
}

// designTrace builds a small trace with three counters including the
// canonical frequency counter.
func designTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	names := []string{counters.CPUTotal, counters.CPUFreqCore0, counters.DiskBytes}
	b := trace.NewBuilder("Core2", "Sort", "m0", 0, names, 25)
	for i := 0; i < n; i++ {
		if err := b.Add([]float64{float64(i), 1000 + float64(i)*10, float64(i * 1000)}, 30, 30); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildDesignLagFreq(t *testing.T) {
	tr := designTrace(t, 5)
	spec := FeatureSpec{Name: "cluster", Counters: tr.Names, LagFreq: true}
	x, y, err := BuildDesign(tr, spec)
	if err != nil {
		t.Fatal(err)
	}
	if x.Cols != 4 || len(y) != 5 {
		t.Fatalf("design dims %dx%d", x.Rows, x.Cols)
	}
	// Lag column: row 0 repeats itself, row i carries row i-1's freq.
	if x.At(0, 3) != 1000 {
		t.Errorf("lag[0] = %v, want 1000", x.At(0, 3))
	}
	if x.At(3, 3) != 1020 {
		t.Errorf("lag[3] = %v, want freq at t=2 (1020)", x.At(3, 3))
	}
}

func TestBuildDesignLagFreqRequiresFreqCounter(t *testing.T) {
	tr := designTrace(t, 5)
	spec := FeatureSpec{Name: "x", Counters: []string{counters.CPUTotal}, LagFreq: true}
	if _, _, err := BuildDesign(tr, spec); err == nil {
		t.Error("expected error when LagFreq set without the frequency counter")
	}
}

func TestBuildPooledDesignIsolatesLagAcrossTraces(t *testing.T) {
	a := designTrace(t, 3)
	b := designTrace(t, 3)
	spec := FeatureSpec{Name: "cluster", Counters: a.Names, LagFreq: true}
	x, _, err := BuildPooledDesign([]*trace.Trace{a, b}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != 6 {
		t.Fatalf("pooled rows = %d", x.Rows)
	}
	// Row 3 is the second trace's first sample: its lag must be its own
	// frequency, not the first trace's last.
	if x.At(3, 3) != 1000 {
		t.Errorf("cross-trace lag leak: lag = %v, want 1000", x.At(3, 3))
	}
}

func TestBuildDesignLagWindow(t *testing.T) {
	tr := designTrace(t, 6)
	spec := FeatureSpec{Name: "cluster", Counters: tr.Names, LagWindow: 3}
	x, _, err := BuildDesign(tr, spec)
	if err != nil {
		t.Fatal(err)
	}
	if x.Cols != 6 { // 3 counters + 3 lags
		t.Fatalf("cols = %d, want 6", x.Cols)
	}
	// Row 4: lags at t-1, t-2, t-3 carry freqs 1030, 1020, 1010.
	if x.At(4, 3) != 1030 || x.At(4, 4) != 1020 || x.At(4, 5) != 1010 {
		t.Errorf("lag window values = %v %v %v", x.At(4, 3), x.At(4, 4), x.At(4, 5))
	}
	// Early rows clamp to the first sample.
	if x.At(0, 5) != 1000 {
		t.Errorf("clamped lag = %v, want 1000", x.At(0, 5))
	}
	if spec.NumInputs() != 6 {
		t.Errorf("NumInputs = %d", spec.NumInputs())
	}
	if got := spec.Label(); got != "CP3" {
		t.Errorf("Label = %q, want CP3", got)
	}
}

func TestLagWindowOverridesLagFreq(t *testing.T) {
	spec := FeatureSpec{Name: "cluster", Counters: []string{counters.CPUFreqCore0}, LagFreq: true, LagWindow: 2}
	if spec.NumInputs() != 3 {
		t.Errorf("NumInputs = %d, want 3", spec.NumInputs())
	}
	if spec.Label() != "CP2" {
		t.Errorf("Label = %q", spec.Label())
	}
}

func TestCPUOnlySpec(t *testing.T) {
	s := CPUOnlySpec()
	if len(s.Counters) != 1 || s.Counters[0] != counters.CPUTotal {
		t.Errorf("CPUOnlySpec = %+v", s)
	}
	if s.NumInputs() != 1 {
		t.Errorf("NumInputs = %d", s.NumInputs())
	}
}
