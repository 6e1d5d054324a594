package obs

import (
	"sync"
	"testing"
	"time"
)

// TestOverloadLatencyTrackerQuantile drives the window the way dist's
// hedge timer does: durations in, seconds stored, durations back out.
func TestOverloadLatencyTrackerQuantile(t *testing.T) {
	w := NewWindow(64)
	quantile := func(q float64) time.Duration { return time.Duration(w.Quantile(q) * float64(time.Second)) }
	if q := quantile(0.95); q != 0 {
		t.Fatalf("quantile before warmup = %v, want 0", q)
	}
	for i := 1; i <= 100; i++ {
		w.Observe((time.Duration(i) * time.Millisecond).Seconds())
	}
	// Window holds the last 64 samples: 37..100ms.
	p50 := quantile(0.5)
	if p50 < 60*time.Millisecond || p50 > 80*time.Millisecond {
		t.Fatalf("p50 = %v, want ≈68ms", p50)
	}
	p95 := quantile(0.95)
	if p95 < 90*time.Millisecond || p95 > 100*time.Millisecond {
		t.Fatalf("p95 = %v, want ≈97ms", p95)
	}
	if hi := quantile(1); hi != 100*time.Millisecond {
		t.Fatalf("q1 = %v, want 100ms", hi)
	}
}

// TestWindowNearestRank pins the one quantile rule, ceil(q·n)−1 on the
// sorted window, including the integer-rank edges where it differs from
// floor(q·n), and the tail fraction the latency SLO burns on.
func TestWindowNearestRank(t *testing.T) {
	w := NewWindow(8)
	if w.Len() != 0 || w.FracAbove(0) != 0 {
		t.Fatal("empty window must hold nothing")
	}
	for _, v := range []float64{50, 10, 40, 20, 30} {
		w.Observe(v)
	}
	for _, c := range []struct{ q, want float64 }{
		{-1, 10}, {0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.6, 30}, {0.99, 50}, {1, 50}, {2, 50},
	} {
		if got := w.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) over 10..50 = %v, want %v", c.q, got, c.want)
		}
	}
	if got := w.FracAbove(30); got != 0.4 {
		t.Errorf("FracAbove(30) = %v, want 0.4 (strictly above)", got)
	}
	// Fill past capacity: only the last 8 of 1..12 remain.
	for v := 1.0; v <= 12; v++ {
		w.Observe(v)
	}
	if w.Len() != 8 || w.Quantile(0) != 5 || w.Quantile(1) != 12 {
		t.Fatalf("full window: len %d, min %v, max %v; want 8, 5, 12", w.Len(), w.Quantile(0), w.Quantile(1))
	}
	if got := w.FracAbove(10); got != 0.25 {
		t.Errorf("FracAbove(10) = %v, want 0.25", got)
	}
}

// TestWindowQuantileAllocFree: a quantile read sorts into the window's own
// scratch buffer, so the hedge path's per-call p95 allocates nothing.
func TestWindowQuantileAllocFree(t *testing.T) {
	w := NewWindow(128)
	for i := 0; i < 200; i++ {
		w.Observe(float64(i%37) * 1e-3)
	}
	if allocs := testing.AllocsPerRun(100, func() { w.Quantile(0.95) }); allocs != 0 {
		t.Fatalf("Quantile allocates %v objects per call, want 0", allocs)
	}
}

// TestOverloadHedgeWindowConcurrent races Observe against the reads the
// way concurrent scatter calls share one peer's window: every read must
// see a value some writer observed, never a torn or scratch-buffer one.
func TestOverloadHedgeWindowConcurrent(t *testing.T) {
	w := NewWindow(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				w.Observe(float64(1 + (g+i)%10))
				if q := w.Quantile(0.95); q < 1 || q > 10 {
					t.Errorf("p95 %v outside the observed range [1, 10]", q)
					return
				}
				if f := w.FracAbove(5); f < 0 || f > 1 {
					t.Errorf("FracAbove %v outside [0, 1]", f)
					return
				}
				if n := w.Len(); n < 1 || n > 32 {
					t.Errorf("Len %d outside [1, 32]", n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
