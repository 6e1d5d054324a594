package obs

import (
	"math"
	"sync"
	"testing"
)

// spanState reads a span name's series from the default registry, which
// accumulates across the package's tests, so tests compare deltas.
func spanState(name string) (uint64, float64) {
	h := Default().Histogram("chaos_span_seconds", Labels{"span": name}, nil)
	return h.Count(), h.Sum()
}

func TestSpanRecordsHistogram(t *testing.T) {
	n0, s0 := spanState("obs.test.fit")
	p0, _ := spanState("obs.test.pipeline")
	root := StartSpan("obs.test.pipeline")
	child := StartSpan("obs.test.fit")
	d := child.End()
	root.End()

	n1, s1 := spanState("obs.test.fit")
	if n1 != n0+1 {
		t.Errorf("fit span count %d -> %d, want +1", n0, n1)
	}
	if got := s1 - s0; d < 0 || math.Abs(got-d.Seconds()) > 1e-12 {
		t.Errorf("fit span sum grew by %v, End returned %v", got, d)
	}
	if p1, _ := spanState("obs.test.pipeline"); p1 != p0+1 {
		t.Errorf("pipeline span count %d -> %d, want +1", p0, p1)
	}
	if got := Default().Snapshot()["chaos_span_seconds{span=obs.test.fit}_count"]; got != float64(n1) {
		t.Errorf("snapshot count = %v, want %d", got, n1)
	}
}

func TestSpanDoubleEndAndNil(t *testing.T) {
	n0, _ := spanState("obs.test.x")
	s := StartSpan("obs.test.x")
	s.End()
	if d := s.End(); d != 0 {
		t.Errorf("second End = %v, want 0", d)
	}
	var nilSpan *Span
	if d := nilSpan.End(); d != 0 {
		t.Errorf("nil End = %v, want 0", d)
	}
	var zero Span
	if d := zero.End(); d != 0 {
		t.Errorf("zero-value End = %v, want 0", d)
	}
	if n1, _ := spanState("obs.test.x"); n1 != n0+1 {
		t.Errorf("span recorded %d times, want 1", n1-n0)
	}
}

// TestDefaultTracerWritesDefaultRegistry: StartSpan is the package's only
// span timer, and its spans land in Default(), the registry /metrics serves.
func TestDefaultTracerWritesDefaultRegistry(t *testing.T) {
	before, _ := spanState("obs.test")
	s := StartSpan("obs.test")
	s.End()
	if after, _ := spanState("obs.test"); after != before+1 {
		t.Errorf("default span count %d -> %d, want +1", before, after)
	}
}

func TestConcurrentSpans(t *testing.T) {
	w0, _ := spanState("obs.test.worker")
	i0, _ := spanState("obs.test.inner")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := StartSpan("obs.test.worker")
				inner := StartSpan("obs.test.inner")
				inner.End()
				s.End()
			}
		}()
	}
	wg.Wait()
	if w1, _ := spanState("obs.test.worker"); w1-w0 != 1600 {
		t.Errorf("worker spans = %d, want 1600", w1-w0)
	}
	if i1, _ := spanState("obs.test.inner"); i1-i0 != 1600 {
		t.Errorf("inner spans = %d, want 1600", i1-i0)
	}
}

// TestSpanAllocFree: a span is a stack value and its histogram is looked
// up once per name, so timing a stage allocates nothing.
func TestSpanAllocFree(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		s := StartSpan("obs.test.alloc")
		defer s.End()
	})
	if allocs != 0 {
		t.Fatalf("StartSpan/End allocates %v objects per span, want 0", allocs)
	}
}
