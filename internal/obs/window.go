package obs

import (
	"math"
	"slices"
	"sync"
)

// Window is a rolling window over the most recent observations (latencies
// in seconds, for its callers), answering nearest-rank quantiles and tail
// fractions. It arms the hedge timer on dist's per-peer p95 and backs the
// latency SLO's fast and slow burn windows. A query sorts into a scratch
// buffer the window owns, so reads allocate nothing. Safe for concurrent
// use.
type Window struct {
	mu     sync.Mutex
	ring   []float64
	next   int
	n      int
	sorted []float64 // Quantile's scratch
}

// NewWindow returns a window over the last size observations.
func NewWindow(size int) *Window {
	return &Window{ring: make([]float64, size), sorted: make([]float64, size)}
}

// Observe records v, evicting the oldest observation once the window is
// full.
func (w *Window) Observe(v float64) {
	w.mu.Lock()
	w.ring[w.next] = v
	w.next = (w.next + 1) % len(w.ring)
	if w.n < len(w.ring) {
		w.n++
	}
	w.mu.Unlock()
}

// Len returns how many observations the window holds.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Quantile returns the nearest-rank q-quantile: the ceil(q·n)−1'th
// smallest of the n held observations, clamped into [0, n−1], so q ≥ 1
// reads the maximum. An empty window reads 0.
func (w *Window) Quantile(q float64) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return 0
	}
	s := w.sorted[:w.n]
	copy(s, w.ring) // until full, the held observations are ring[:n]
	slices.Sort(s)
	return s[max(0, min(int(math.Ceil(q*float64(w.n)))-1, w.n-1))]
}

// FracAbove returns the share of held observations strictly greater than
// x, or 0 when the window is empty.
func (w *Window) FracAbove(x float64) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return 0
	}
	above := 0
	for _, v := range w.ring[:w.n] {
		if v > x {
			above++
		}
	}
	return float64(above) / float64(w.n)
}
