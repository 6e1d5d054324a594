// Package models implements the paper's four power-modeling techniques
// (Eqs. 1–4) behind a single interface — linear, piecewise linear (MARS),
// quadratic (MARS with degree-2 interactions), and switching (a separate
// linear model per CPU-frequency state) — plus the Eq. 5 composition of
// per-machine models into cluster power models, and JSON serialization for
// deploying fitted models.
package models

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mars"
	"repro/internal/mathx"
	"repro/internal/regress"
)

// Technique enumerates the four modeling techniques.
type Technique string

const (
	TechLinear    Technique = "linear"
	TechPiecewise Technique = "piecewise"
	TechQuadratic Technique = "quadratic"
	TechSwitching Technique = "switching"
)

// Techniques returns all techniques in the paper's presentation order.
func Techniques() []Technique {
	return []Technique{TechLinear, TechPiecewise, TechQuadratic, TechSwitching}
}

// Short returns the single-letter code the paper's Table IV uses.
func (t Technique) Short() string {
	switch t {
	case TechLinear:
		return "L"
	case TechPiecewise:
		return "P"
	case TechQuadratic:
		return "Q"
	case TechSwitching:
		return "S"
	}
	return "?"
}

// Model is a fitted machine-level power model: watts as a function of one
// row of feature values.
type Model interface {
	Predict(row []float64) float64
	Technique() Technique
	// NumInputs is the expected row width.
	NumInputs() int
}

// FitOptions tunes model fitting.
type FitOptions struct {
	// FreqCol is the index of the CPU-frequency feature, required by the
	// switching technique (-1 when absent).
	FreqCol int
	// MaxKnots bounds MARS knot candidates per feature (default 10).
	MaxKnots int
}

// Fit trains a model of the given technique on rows of x against watts y.
// Every value of x and y must be finite.
func Fit(tech Technique, x *mathx.Matrix, y []float64, opts FitOptions) (Model, error) {
	if x.Rows == 0 || x.Cols == 0 {
		return nil, fmt.Errorf("models: empty design matrix (%dx%d)", x.Rows, x.Cols)
	}
	if err := mathx.CheckFinite(x, y); err != nil {
		return nil, fmt.Errorf("models: %w", err)
	}
	switch tech {
	case TechLinear:
		return fitLinear(x, y)
	case TechPiecewise:
		return fitMARS(x, y, TechPiecewise,
			mars.Options{MaxDegree: 1, MaxTerms: 15, MaxKnots: opts.MaxKnots})
	case TechQuadratic:
		if x.Cols < 2 {
			return nil, fmt.Errorf("models: quadratic technique requires multiple features, got %d", x.Cols)
		}
		return fitMARS(x, y, TechQuadratic,
			mars.Options{MaxDegree: 2, SelfInteraction: true, MaxTerms: 17, MaxKnots: opts.MaxKnots})
	case TechSwitching:
		if x.Cols < 2 {
			return nil, fmt.Errorf("models: switching technique requires multiple features, got %d", x.Cols)
		}
		if opts.FreqCol < 0 || opts.FreqCol >= x.Cols {
			return nil, fmt.Errorf("models: switching technique needs a frequency column, got %d", opts.FreqCol)
		}
		return fitSwitching(x, y, opts.FreqCol)
	default:
		return nil, fmt.Errorf("models: unknown technique %q", tech)
	}
}

// --- Linear (Eq. 1) ------------------------------------------------------

// Linear is the baseline linear regression power model.
type Linear struct {
	Intercept float64   `json:"intercept"`
	Coef      []float64 `json:"coef"`
}

func fitLinear(x *mathx.Matrix, y []float64) (*Linear, error) {
	fit, err := regress.OLS(x, y)
	if err != nil {
		return nil, err
	}
	return &Linear{Intercept: fit.Intercept, Coef: fit.Coef}, nil
}

// Predict implements Model.
func (l *Linear) Predict(row []float64) float64 {
	y := l.Intercept
	for j, c := range l.Coef {
		y += c * row[j]
	}
	return y
}

// Technique implements Model.
func (l *Linear) Technique() Technique { return TechLinear }

// NumInputs implements Model.
func (l *Linear) NumInputs() int { return len(l.Coef) }

// --- Piecewise / Quadratic (Eqs. 2–3, via MARS) --------------------------

type marsModel struct {
	m    *mars.Model
	tech Technique
	// means/scales standardize inputs before the basis expansion; raw
	// counters span ten orders of magnitude, which would wreck knot
	// search numerics. Nil means the model was fitted on raw inputs.
	means, scales []float64
	// lo/hi clamp inputs to the training range at prediction time.
	// Hinge products extrapolate quadratically, so unseen operating
	// points (new workloads, bigger clusters) would otherwise produce
	// wild predictions; clamping freezes the estimate at the nearest
	// trained operating point instead.
	lo, hi []float64
}

// fitMARS standardizes the inputs, fits the basis expansion, and wraps the
// result with the scaler and the training-range clamps.
func fitMARS(x *mathx.Matrix, y []float64, tech Technique, opts mars.Options) (*marsModel, error) {
	n, p := x.Rows, x.Cols
	z := mathx.NewMatrix(n, p)
	means := make([]float64, p)
	scales := make([]float64, p)
	lo := make([]float64, p)
	hi := make([]float64, p)
	for j := 0; j < p; j++ {
		raw := x.Col(j)
		lo[j], hi[j] = mathx.MinMax(raw)
		col, mean, scale := mathx.Standardize(raw)
		means[j], scales[j] = mean, scale
		for i := 0; i < n; i++ {
			z.Set(i, j, col[i])
		}
	}
	m, err := mars.Fit(z, y, opts)
	if err != nil {
		return nil, err
	}
	return &marsModel{m: m, tech: tech, means: means, scales: scales, lo: lo, hi: hi}, nil
}

func (m *marsModel) Predict(row []float64) float64 {
	if m.means == nil {
		return m.m.Predict(row)
	}
	z := make([]float64, len(row))
	for j := range z {
		v := row[j]
		if m.lo != nil {
			v = mathx.Clamp(v, m.lo[j], m.hi[j])
		}
		z[j] = (v - m.means[j]) / m.scales[j]
	}
	return m.m.Predict(z)
}
func (m *marsModel) Technique() Technique { return m.tech }
func (m *marsModel) NumInputs() int       { return m.m.NumInputs }

// MARS exposes the underlying basis expansion (for inspection/serialization).
func (m *marsModel) MARS() *mars.Model { return m.m }

// --- Switching (Eq. 4) -----------------------------------------------------

// SwitchBin is one frequency state's linear model, covering frequency
// values in [Lo, Hi). Within a bin the frequency column (and any other
// near-constant column) carries no usable variation — a per-bin OLS would
// assign it an enormous, meaningless coefficient — so each bin records
// which columns it actually uses and the training range it clamps inputs
// to.
type SwitchBin struct {
	Lo    float64   `json:"lo"`
	Hi    float64   `json:"hi"`
	Cols  []int     `json:"cols"`
	ColLo []float64 `json:"col_lo"`
	ColHi []float64 `json:"col_hi"`
	M     *Linear   `json:"m"`
}

// predict evaluates the bin model on a full input row.
func (b *SwitchBin) predict(row []float64) float64 {
	in := make([]float64, len(b.Cols))
	for k, j := range b.Cols {
		in[k] = mathx.Clamp(row[j], b.ColLo[k], b.ColHi[k])
	}
	return b.M.Predict(in)
}

// Switching selects a per-P-state linear model with the CPU frequency as
// the indicator function I(f) of Eq. 4.
type Switching struct {
	FreqCol  int         `json:"freq_col"`
	Bins     []SwitchBin `json:"bins"`
	Fallback *Linear     `json:"fallback"`
	Inputs   int         `json:"inputs"`
}

// fitSwitching clusters the observed frequency values into states (gaps
// larger than 5% of the frequency span start a new state), fits a linear
// model per state with enough data, and a global fallback for the rest.
func fitSwitching(x *mathx.Matrix, y []float64, freqCol int) (*Switching, error) {
	fallback, err := fitLinear(x, y)
	if err != nil {
		return nil, err
	}
	sw := &Switching{FreqCol: freqCol, Fallback: fallback, Inputs: x.Cols}

	freqs := x.Col(freqCol)
	sorted := append([]float64(nil), freqs...)
	sort.Float64s(sorted)
	span := sorted[len(sorted)-1] - sorted[0]
	if span <= 0 {
		// Single frequency state: the fallback is the whole model.
		return sw, nil
	}
	gap := span * 0.05
	// Identify state boundaries.
	var edges []float64 // bin upper bounds (exclusive), last = +inf
	for i := 1; i < len(sorted); i++ {
		if sorted[i]-sorted[i-1] > gap {
			edges = append(edges, (sorted[i]+sorted[i-1])/2)
		}
	}
	edges = append(edges, math.MaxFloat64)
	lo := -math.MaxFloat64
	minRows := x.Cols*3 + 10
	for _, hi := range edges {
		var rows []int
		for i, f := range freqs {
			if f >= lo && f < hi {
				rows = append(rows, i)
			}
		}
		if len(rows) >= minRows {
			sub := x.SelectRows(rows)
			suby := make([]float64, len(rows))
			for k, i := range rows {
				suby[k] = y[i]
			}
			if bin := fitSwitchBin(sub, suby, lo, hi); bin != nil {
				sw.Bins = append(sw.Bins, *bin)
			}
		}
		lo = hi
	}
	return sw, nil
}

// fitSwitchBin fits one frequency state's linear model, keeping only
// columns with meaningful within-bin variation (relative to their scale)
// and recording the clamping range. Returns nil when no usable fit exists.
func fitSwitchBin(sub *mathx.Matrix, suby []float64, lo, hi float64) *SwitchBin {
	var cols []int
	var colLo, colHi []float64
	for j := 0; j < sub.Cols; j++ {
		col := sub.Col(j)
		min, max := mathx.MinMax(col)
		spread := max - min
		scale := math.Max(math.Abs(min), math.Abs(max))
		// Keep the column only if it moves by more than a sliver of its
		// own magnitude (the frequency column inside its bin fails this).
		if spread > 1e-6 && (scale == 0 || spread/scale > 1e-3) {
			cols = append(cols, j)
			colLo = append(colLo, min)
			colHi = append(colHi, max)
		}
	}
	if len(cols) == 0 {
		// All-constant bin: intercept-only model at the mean power.
		return &SwitchBin{Lo: lo, Hi: hi, M: &Linear{Intercept: mathx.Mean(suby)}}
	}
	m, err := fitLinear(sub.SelectCols(cols), suby)
	if err != nil {
		return nil
	}
	return &SwitchBin{Lo: lo, Hi: hi, Cols: cols, ColLo: colLo, ColHi: colHi, M: m}
}

// Predict implements Model.
//
// A frequency that lands inside a bin uses that bin's clamped linear
// model. A frequency in a gap between kept bins — an actuated P-state the
// training window never visited, or a bin dropped for too few rows —
// falls back to the NEAREST bin by edge distance rather than the global
// unclamped Linear: the global fit extrapolates along the raw frequency
// axis and can leave the physical power range entirely (negative or wild
// watts) exactly where a capping controller asks what-if questions. The
// global fallback remains only for models with no bins at all (single
// P-state platforms) and non-finite frequencies.
func (s *Switching) Predict(row []float64) float64 {
	f := row[s.FreqCol]
	nearest, nearestDist := -1, math.MaxFloat64
	for i := range s.Bins {
		b := &s.Bins[i]
		if f >= b.Lo && f < b.Hi {
			return b.predict(row)
		}
		var d float64
		switch {
		case f < b.Lo:
			d = b.Lo - f
		default: // f >= b.Hi
			d = f - b.Hi
		}
		if d < nearestDist {
			nearest, nearestDist = i, d
		}
	}
	if nearest >= 0 && !math.IsNaN(f) {
		return s.Bins[nearest].predict(row)
	}
	return s.Fallback.Predict(row)
}

// Technique implements Model.
func (s *Switching) Technique() Technique { return TechSwitching }

// NumInputs implements Model.
func (s *Switching) NumInputs() int { return s.Inputs }
