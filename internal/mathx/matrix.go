// Package mathx provides the dense linear algebra and descriptive
// statistics primitives used by the regression, MARS, and feature-selection
// layers. It is intentionally small: dense row-major matrices, Householder
// QR least squares, and the handful of statistics the CHAOS pipeline needs.
//
// Everything is stdlib-only and deterministic.
package mathx

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix. The zero value is an empty matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mathx: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return &Matrix{}, nil
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("mathx: ragged rows: row %d has %d cols, want %d", i, len(row), c)
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// SelectCols returns a new matrix containing the listed columns of m, in
// order. Indices may repeat.
func (m *Matrix) SelectCols(cols []int) *Matrix {
	out := NewMatrix(m.Rows, len(cols))
	for i := 0; i < m.Rows; i++ {
		base := i * m.Cols
		for k, j := range cols {
			out.Data[i*len(cols)+k] = m.Data[base+j]
		}
	}
	return out
}

// SelectRows returns a new matrix containing the listed rows of m, in order.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for k, i := range rows {
		copy(out.Data[k*m.Cols:(k+1)*m.Cols], m.Data[i*m.Cols:(i+1)*m.Cols])
	}
	return out
}

// CheckFinite returns an error naming the first value of x, by row and
// column, or else of the response y, by row, that is NaN or ±Inf.
func CheckFinite(x *Matrix, y []float64) error {
	for k, v := range x.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite value %v at row %d, column %d", v, k/x.Cols, k%x.Cols)
		}
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite response %v at row %d", v, i)
		}
	}
	return nil
}

// MulVec returns m * x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("mathx: MulVec dimension mismatch: %d cols vs vector len %d", m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		base := i * m.Cols
		for j := 0; j < m.Cols; j++ {
			s += m.Data[base+j] * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Mul returns m * b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("mathx: Mul dimension mismatch: %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out, nil
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// AppendCol returns a new matrix with col appended as the last column.
func (m *Matrix) AppendCol(col []float64) (*Matrix, error) {
	if m.Rows != 0 && len(col) != m.Rows {
		return nil, fmt.Errorf("mathx: AppendCol length %d, want %d", len(col), m.Rows)
	}
	rows := m.Rows
	if rows == 0 {
		rows = len(col)
	}
	out := NewMatrix(rows, m.Cols+1)
	for i := 0; i < rows; i++ {
		if m.Cols > 0 {
			copy(out.Data[i*out.Cols:], m.Data[i*m.Cols:(i+1)*m.Cols])
		}
		out.Data[i*out.Cols+m.Cols] = col[i]
	}
	return out, nil
}

// ErrSingular is returned when a system is numerically singular.
var ErrSingular = errors.New("mathx: matrix is singular to working precision")

// QRFactor holds a Householder QR factorization of an m x n matrix with
// m >= n. It supports least-squares solves and inversion of R.
type QRFactor struct {
	qr   *Matrix   // packed factors: R in upper triangle, Householder vectors below
	rdia []float64 // diagonal of R
	m, n int
}

// QR computes the Householder QR factorization of a (rows >= cols).
func QR(a *Matrix) (*QRFactor, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("mathx: QR requires rows >= cols, got %dx%d", m, n)
	}
	qr := a.Clone()
	rdia := make([]float64, n)
	for k := 0; k < n; k++ {
		// Compute 2-norm of column k below the diagonal.
		nrm := 0.0
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm != 0 {
			if qr.At(k, k) < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				qr.Set(i, k, qr.At(i, k)/nrm)
			}
			qr.Set(k, k, qr.At(k, k)+1)
			// Apply transformation to remaining columns.
			for j := k + 1; j < n; j++ {
				s := 0.0
				for i := k; i < m; i++ {
					s += qr.At(i, k) * qr.At(i, j)
				}
				s = -s / qr.At(k, k)
				for i := k; i < m; i++ {
					qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
				}
			}
		}
		rdia[k] = -nrm
	}
	return &QRFactor{qr: qr, rdia: rdia, m: m, n: n}, nil
}

// IsFullRank reports whether all diagonal entries of R are nonzero to
// working precision, scaled by the matrix magnitude.
func (f *QRFactor) IsFullRank() bool {
	tol := f.tol()
	for _, d := range f.rdia {
		if math.Abs(d) <= tol {
			return false
		}
	}
	return true
}

func (f *QRFactor) tol() float64 {
	maxDiag := 0.0
	for _, d := range f.rdia {
		if a := math.Abs(d); a > maxDiag {
			maxDiag = a
		}
	}
	return math.Max(float64(f.m), float64(f.n)) * 1e-13 * maxDiag
}

// Solve returns the least-squares solution x minimizing ||Ax - b||₂.
func (f *QRFactor) Solve(b []float64) ([]float64, error) {
	if len(b) != f.m {
		return nil, fmt.Errorf("mathx: Solve rhs length %d, want %d", len(b), f.m)
	}
	if !f.IsFullRank() {
		return nil, ErrSingular
	}
	x := make([]float64, f.m)
	copy(x, b)
	// Compute Qᵀ b.
	for k := 0; k < f.n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		s := 0.0
		for i := k; i < f.m; i++ {
			s += f.qr.At(i, k) * x[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < f.m; i++ {
			x[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R x = Qᵀ b.
	for k := f.n - 1; k >= 0; k-- {
		x[k] /= f.rdia[k]
		for i := 0; i < k; i++ {
			x[i] -= x[k] * f.qr.At(i, k)
		}
	}
	return x[:f.n], nil
}

// RInverse returns R⁻¹ (n x n upper triangular inverse).
func (f *QRFactor) RInverse() (*Matrix, error) {
	if !f.IsFullRank() {
		return nil, ErrSingular
	}
	n := f.n
	inv := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		// Solve R x = e_j by back substitution.
		x := make([]float64, n)
		x[j] = 1
		for k := j; k >= 0; k-- {
			x[k] /= f.rdia[k]
			for i := 0; i < k; i++ {
				x[i] -= x[k] * f.qr.At(i, k)
			}
		}
		for i := 0; i <= j; i++ {
			inv.Set(i, j, x[i])
		}
	}
	return inv, nil
}

// SolveLeastSquares computes the OLS solution of X·β = y via QR. If X is
// rank deficient, it retries with a small ridge penalty so callers always
// get a usable (if regularized) fit; the returned bool reports whether the
// ridge fallback was used.
func SolveLeastSquares(x *Matrix, y []float64) (beta []float64, ridged bool, err error) {
	f, err := QR(x)
	if err != nil {
		return nil, false, err
	}
	beta, err = f.Solve(y)
	if err == nil {
		return beta, false, nil
	}
	if !errors.Is(err, ErrSingular) {
		return nil, false, err
	}
	beta, err = RidgeSolve(x, y, 1e-6)
	return beta, true, err
}

// RidgeSolve solves (XᵀX + λI)β = Xᵀy by augmenting the design matrix with
// √λ·I rows and running QR on the stacked system, which is numerically
// gentler than forming normal equations.
func RidgeSolve(x *Matrix, y []float64, lambda float64) ([]float64, error) {
	if lambda <= 0 {
		return nil, fmt.Errorf("mathx: ridge lambda must be positive, got %g", lambda)
	}
	m, n := x.Rows, x.Cols
	aug := NewMatrix(m+n, n)
	copy(aug.Data[:m*n], x.Data)
	s := math.Sqrt(lambda)
	for j := 0; j < n; j++ {
		aug.Set(m+j, j, s)
	}
	rhs := make([]float64, m+n)
	copy(rhs, y)
	f, err := QR(aug)
	if err != nil {
		return nil, err
	}
	return f.Solve(rhs)
}

// XtXInverse returns (XᵀX)⁻¹ computed from the QR factorization as
// R⁻¹·R⁻ᵀ. This is the covariance kernel needed for OLS standard errors.
func XtXInverse(x *Matrix) (*Matrix, error) {
	f, err := QR(x)
	if err != nil {
		return nil, err
	}
	rinv, err := f.RInverse()
	if err != nil {
		return nil, err
	}
	return rinv.Mul(rinv.Transpose())
}
