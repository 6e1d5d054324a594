package obs

import (
	"slices"
	"sync"

	"repro/internal/mathx"
)

// Window is a rolling window over the most recent observations (latencies
// in seconds, for its callers), answering nearest-rank quantiles and tail
// fractions. It arms the hedge timer on dist's per-peer p95 and backs the
// latency SLO's fast and slow burn windows. A query sorts into a scratch
// buffer the window owns, so reads allocate nothing. Safe for concurrent
// use.
type Window struct {
	mu     sync.Mutex
	ring   *mathx.Ring[float64]
	sorted []float64 // Quantile's scratch
}

// NewWindow returns a window over the last size observations.
func NewWindow(size int) *Window {
	return &Window{ring: mathx.NewRing[float64](size), sorted: make([]float64, 0, size)}
}

// Observe records v, evicting the oldest observation once the window is
// full.
func (w *Window) Observe(v float64) {
	w.mu.Lock()
	w.ring.Push(v)
	w.mu.Unlock()
}

// Len returns how many observations the window holds.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ring.Len()
}

// Quantile returns the nearest-rank q-quantile of the held observations
// (mathx.NearestRank). An empty window reads 0.
func (w *Window) Quantile(q float64) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.ring.Len()
	if n == 0 {
		return 0
	}
	s := w.ring.AppendTo(w.sorted[:0])
	slices.Sort(s)
	return s[mathx.NearestRank(n, q)]
}

// FracAbove returns the share of held observations strictly greater than
// x, or 0 when the window is empty.
func (w *Window) FracAbove(x float64) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.ring.Len()
	if n == 0 {
		return 0
	}
	above := 0
	for i := 0; i < n; i++ {
		if w.ring.At(i) > x {
			above++
		}
	}
	return float64(above) / float64(n)
}
