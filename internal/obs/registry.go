// Package obs is the observability layer for the CHAOS pipeline: a
// lock-cheap metrics registry (counters, gauges, fixed-bucket histograms)
// exported in Prometheus text format, span timers for pipeline stages,
// sampled request traces for the serving path, a JSON event sink for
// machine-readable run logs, and an HTTP exporter serving /metrics,
// /healthz, and pprof.
//
// The package is stdlib-only, like the rest of the module. All hot-path
// operations (Counter.Add, Gauge.Set, Histogram.Observe, Span.End) are a
// handful of atomic operations — cheap enough to sit inside the 1 Hz
// collector whose own overhead the paper bounds below 1% CPU (§III-B).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attach dimensions to an instrument (e.g. machine ID, span name).
// A nil Labels is valid and means "no labels".
type Labels map[string]string

// atomicFloat is a float64 updated with atomic bit operations.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Add increments the counter. Negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.v.Add(v)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add shifts the gauge value.
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into fixed buckets (upper bounds,
// ascending). Observations above the last bound land in the implicit +Inf
// bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomicFloat
	total  atomic.Uint64
	// exemplars holds at most one exemplar per bucket — the most recent
	// traced observation that landed there — linking the latency metric
	// back to a retrievable trace ID.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar ties one observed value to the trace that produced it.
type Exemplar struct {
	Value   float64
	TraceID string
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// ObserveExemplar records one value and, when traceID is non-empty,
// stamps the bucket it landed in with a trace-ID exemplar (one atomic
// pointer swap — cheap enough for the per-request path).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID})
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// HistState is a point-in-time copy of a histogram, so a caller can
// compare two snapshots or compute quantiles without racing new
// observations.
type HistState struct {
	Bounds []float64
	Counts []uint64 // len(Bounds)+1; last is +Inf
	Count  uint64
	Sum    float64
}

// State snapshots the histogram's buckets.
func (h *Histogram) State() HistState {
	s := HistState{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.total.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile returns the bucket upper bound at or below which a q fraction
// of observations fall — the histogram estimate of the q-quantile
// (conservative: the true value is ≤ the returned bound, quantized up to
// one bucket's width). When the rank lands in the +Inf overflow bucket
// there is no finite bound to report, so Quantile returns +Inf — the
// caller can tell the estimate is saturated instead of silently reading
// the last finite bound as if it covered the tail. Returns 0 when empty.
func (s HistState) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// Quantile estimates the q-quantile over the histogram's full history.
func (h *Histogram) Quantile(q float64) float64 { return h.State().Quantile(q) }

// ExpBuckets returns n exponential bucket bounds starting at start and
// multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		return []float64{1}
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n linear bucket bounds starting at start with the
// given width.
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 {
		return []float64{1}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// instrument is one registered metric series.
type instrument struct {
	name   string
	labels Labels
	kind   string // "counter", "gauge", "histogram"
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named instruments and renders them in Prometheus text
// format. Get-or-create calls take a short lock; the returned instruments
// are lock-free to update.
type Registry struct {
	mu   sync.RWMutex
	inst map[string]*instrument // key: name + sorted labels
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{inst: map[string]*instrument{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the pipeline stages report
// into. Binaries mount it at /metrics; tests can read it directly.
func Default() *Registry { return defaultRegistry }

// seriesKey builds the map key for an instrument: name plus sorted labels.
func seriesKey(name string, labels Labels) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(labels[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

// get returns the instrument for key, or creates it with mk. It panics if
// the key exists with a different kind — that is a programming error.
func (r *Registry) get(name string, labels Labels, kind string, mk func() *instrument) *instrument {
	key := seriesKey(name, labels)
	r.mu.RLock()
	in, ok := r.inst[key]
	r.mu.RUnlock()
	if ok {
		if in.kind != kind {
			panic(fmt.Sprintf("obs: %s already registered as %s, requested %s", key, in.kind, kind))
		}
		return in
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.inst[key]; ok {
		if in.kind != kind {
			panic(fmt.Sprintf("obs: %s already registered as %s, requested %s", key, in.kind, kind))
		}
		return in
	}
	in = mk()
	r.inst[key] = in
	return in
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	in := r.get(name, labels, "counter", func() *instrument {
		return &instrument{name: name, labels: cloneLabels(labels), kind: "counter", c: &Counter{}}
	})
	return in.c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	in := r.get(name, labels, "gauge", func() *instrument {
		return &instrument{name: name, labels: cloneLabels(labels), kind: "gauge", g: &Gauge{}}
	})
	return in.g
}

// Histogram returns (creating if needed) the named histogram. bounds is
// only used on first creation; later calls with the same name+labels
// return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, labels Labels, bounds []float64) *Histogram {
	in := r.get(name, labels, "histogram", func() *instrument {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h := &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1),
			exemplars: make([]atomic.Pointer[Exemplar], len(b)+1)}
		return &instrument{name: name, labels: cloneLabels(labels), kind: "histogram", h: h}
	})
	return in.h
}

func cloneLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Snapshot returns the current scalar value of every series: counters and
// gauges by their series key, histograms as key_count and key_sum. Useful
// in tests.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]float64, len(r.inst))
	for key, in := range r.inst {
		switch in.kind {
		case "counter":
			out[key] = in.c.Value()
		case "gauge":
			out[key] = in.g.Value()
		case "histogram":
			out[key+"_count"] = float64(in.h.Count())
			out[key+"_sum"] = in.h.Sum()
		}
	}
	return out
}

// NumSeries returns the number of registered series (histograms count as
// one).
func (r *Registry) NumSeries() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.inst)
}

// escapeLabel escapes a label value for the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// formatLabels renders {k="v",...} with sorted keys; extra appends one
// more pair (used for histogram le bounds). Returns "" for no labels.
func formatLabels(labels Labels, extraKey, extraVal string) string {
	n := len(labels)
	if extraKey != "" {
		n++
	}
	if n == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, k, escapeLabel(labels[k]))
	}
	if extraKey != "" {
		if len(keys) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, extraKey, escapeLabel(extraVal))
	}
	sb.WriteByte('}')
	return sb.String()
}

// exemplarSuffix renders the OpenMetrics exemplar annotation for bucket i
// (" # {trace_id=\"...\"} value"), or "" when the bucket has none. For a
// fixed histogram state the rendering is fully deterministic — the
// exemplar is one atomic pointer, so consecutive renders of an idle
// registry are byte-identical.
func exemplarSuffix(h *Histogram, i int) string {
	if i >= len(h.exemplars) {
		return ""
	}
	ex := h.exemplars[i].Load()
	if ex == nil {
		return ""
	}
	return fmt.Sprintf(` # {trace_id="%s"} %g`, escapeLabel(ex.TraceID), ex.Value)
}

// WritePrometheus renders every instrument in the classic Prometheus
// text exposition format (version 0.0.4). Exemplars are never rendered
// here: the classic parser rejects a mid-line '#' after the sample
// value, so they are only legal in OpenMetrics — use WriteOpenMetrics
// (the /metrics handler negotiates via the Accept header). Output order
// is fully deterministic: metric names sorted, one # TYPE line per name,
// and within a name the series sorted by their (already key-sorted)
// label sets — so consecutive scrapes diff cleanly no matter what order
// series were registered or how the map iterated.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.write(w, false)
}

// WriteOpenMetrics renders every instrument in the OpenMetrics text
// exposition format: the same deterministic ordering as WritePrometheus,
// plus histogram bucket exemplars ('# {trace_id="..."} value') and the
// terminating '# EOF' line. Counter families whose name carries the
// conventional _total suffix advertise the suffix-less family name on
// their TYPE line, as the OpenMetrics spec requires; sample lines keep
// the full name so series names match the classic format.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.write(w, true)
}

func (r *Registry) write(w io.Writer, openMetrics bool) error {
	r.mu.RLock()
	byName := map[string][]*instrument{}
	for _, in := range r.inst {
		byName[in.name] = append(byName[in.name], in)
	}
	r.mu.RUnlock()
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	var ordered []*instrument
	for _, n := range names {
		series := byName[n]
		sort.Slice(series, func(i, j int) bool {
			return formatLabels(series[i].labels, "", "") < formatLabels(series[j].labels, "", "")
		})
		ordered = append(ordered, series...)
	}
	typed := map[string]bool{}
	for _, in := range ordered {
		if !typed[in.name] {
			typed[in.name] = true
			family := in.name
			if openMetrics && in.kind == "counter" {
				family = strings.TrimSuffix(family, "_total")
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, in.kind); err != nil {
				return err
			}
		}
		switch in.kind {
		case "counter":
			if _, err := fmt.Fprintf(w, "%s%s %g\n", in.name, formatLabels(in.labels, "", ""), in.c.Value()); err != nil {
				return err
			}
		case "gauge":
			if _, err := fmt.Fprintf(w, "%s%s %g\n", in.name, formatLabels(in.labels, "", ""), in.g.Value()); err != nil {
				return err
			}
		case "histogram":
			h := in.h
			cum := uint64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				var ex string
				if openMetrics {
					ex = exemplarSuffix(h, i)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", in.name, formatLabels(in.labels, "le", fmt.Sprintf("%g", b)), cum, ex); err != nil {
					return err
				}
			}
			cum += h.counts[len(h.bounds)].Load()
			var ex string
			if openMetrics {
				ex = exemplarSuffix(h, len(h.bounds))
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", in.name, formatLabels(in.labels, "le", "+Inf"), cum, ex); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", in.name, formatLabels(in.labels, "", ""), h.Sum()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", in.name, formatLabels(in.labels, "", ""), h.Count()); err != nil {
				return err
			}
		}
	}
	if openMetrics {
		if _, err := io.WriteString(w, "# EOF\n"); err != nil {
			return err
		}
	}
	return nil
}
