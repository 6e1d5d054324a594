package obs

import (
	"sync"
	"time"
)

// spanBuckets covers 10 µs to ~40 s — the span durations the pipeline
// produces, from single OLS fits to full Algorithm 1 runs.
var spanBuckets = ExpBuckets(1e-5, 4, 12)

// spanHists caches each span name's chaos_span_seconds histogram in the
// default registry, so the registry lookup, which builds a series key,
// happens once per name rather than once per span.
var (
	spanMu    sync.RWMutex
	spanHists = map[string]*Histogram{}
)

func spanHist(name string) *Histogram {
	spanMu.RLock()
	h := spanHists[name]
	spanMu.RUnlock()
	if h == nil {
		// Registry.Histogram returns the same series to every caller, so
		// two spans racing to fill the cache store the same pointer.
		h = defaultRegistry.Histogram("chaos_span_seconds", Labels{"span": name}, spanBuckets)
		spanMu.Lock()
		spanHists[name] = h
		spanMu.Unlock()
	}
	return h
}

// Span times one pipeline stage: End records its wall time into the
// default registry's chaos_span_seconds{span=name} histogram. A Span is a
// value on the caller's stack, so starting and ending one allocates
// nothing.
type Span struct {
	h     *Histogram // nil once ended
	start time.Time
}

// StartSpan starts timing the named stage.
func StartSpan(name string) Span {
	return Span{h: spanHist(name), start: time.Now()}
}

// End records the span's wall time and returns it. A second End, or End on
// a nil or zero Span, is a no-op returning zero.
func (s *Span) End() time.Duration {
	if s == nil || s.h == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.Observe(d.Seconds())
	s.h = nil
	return d
}
