package mathx

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the minimum and maximum of xs. It returns (0, 0) for an
// empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// NearestRank returns the index of the nearest-rank q-quantile among n
// sorted values: ceil(q·n)−1, clamped into [0, n−1], so q ≥ 1 reads the
// maximum.
func NearestRank(n int, q float64) int {
	return max(0, min(int(math.Ceil(q*float64(n)))-1, n-1))
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Correlation returns the Pearson correlation coefficient between xs and
// ys. It returns 0 when either input is constant or the lengths differ.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Standardize centers and scales xs to zero mean and unit standard
// deviation, returning the transformed copy along with the mean and
// standard deviation used. A constant column is returned as all zeros with
// scale 1 so downstream solvers see a harmless column.
func Standardize(xs []float64) (z []float64, mean, scale float64) {
	mean = Mean(xs)
	scale = StdDev(xs)
	if scale == 0 {
		scale = 1
	}
	z = make([]float64, len(xs))
	for i, x := range xs {
		z[i] = (x - mean) / scale
	}
	return z, mean, scale
}

// NormalSurvival returns P(Z > z) for a standard normal variable, used by
// the Wald significance test. It relies on the complementary error
// function for numerical stability in the tails.
func NormalSurvival(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// WaldPValue returns the two-sided p-value of the Wald z-statistic
// |coef/se|. A zero or non-finite standard error yields p = 1 (no
// evidence the coefficient differs from zero).
func WaldPValue(coef, se float64) float64 {
	if se <= 0 || math.IsNaN(se) || math.IsInf(se, 0) {
		return 1
	}
	z := math.Abs(coef / se)
	return 2 * NormalSurvival(z)
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
