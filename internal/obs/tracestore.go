package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mathx"
)

// Attr is one key/value annotation on a request-trace span.
type Attr struct {
	Key   string `json:"k"`
	Value any    `json:"v"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: v} }

// SpanData is one span of a request trace, in the wire form /debug/traces
// serves. TraceID groups every span of one request; ParentSpanID links a
// span to the request's root span.
type SpanData struct {
	Name         string        `json:"name"`
	TraceID      string        `json:"trace_id,omitempty"`
	SpanID       string        `json:"span_id,omitempty"`
	ParentSpanID string        `json:"parent_span_id,omitempty"`
	Start        time.Time     `json:"start"`
	Duration     time.Duration `json:"duration_ns"`
	Attrs        []Attr        `json:"attrs,omitempty"`
}

// ---------------------------------------------------------------------------
// Trace / span IDs and W3C traceparent propagation.

// idState seeds the process-local ID sequence. IDs only need to be unique
// and well-mixed, not cryptographic: a splitmix64 walk over an atomic
// counter gives both at the cost of one atomic add per ID.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()))
}

func nextID() uint64 { return mathx.Mix64(idState.Add(mathx.GoldenGamma)) }

const hexdigits = "0123456789abcdef"

func hex64(v uint64) string {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// NewTraceID returns a fresh 128-bit trace ID as 32 lowercase hex chars.
func NewTraceID() string { return hex64(nextID()) + hex64(nextID()) }

// NewSpanID returns a fresh 64-bit span ID as 16 lowercase hex chars.
func NewSpanID() string { return hex64(nextID()) }

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool { return strings.Trim(s, "0") == "" }

// ParseTraceparent parses a W3C traceparent header
// ("00-<32 hex trace id>-<16 hex span id>-<2 hex flags>") and returns the
// trace ID and the caller's span ID. ok is false for malformed headers and
// the all-zero IDs the spec forbids.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 {
		return "", "", false
	}
	ver, tid, sid, flags := parts[0], parts[1], parts[2], parts[3]
	if len(ver) != 2 || !isHex(ver) || ver == "ff" {
		return "", "", false
	}
	if len(tid) != 32 || !isHex(tid) || allZero(tid) {
		return "", "", false
	}
	if len(sid) != 16 || !isHex(sid) || allZero(sid) {
		return "", "", false
	}
	if len(flags) != 2 || !isHex(flags) {
		return "", "", false
	}
	return tid, sid, true
}

// FormatTraceparent renders a traceparent header for the given IDs with
// the sampled flag set.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ---------------------------------------------------------------------------
// Request traces: an ActiveTrace accumulates spans while a request is in
// flight; on End it lands in the owning TraceStore.

// TraceData is one completed request trace.
type TraceData struct {
	TraceID  string        `json:"trace_id"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Status is the request outcome: "ok", "error", "shed", or "late".
	Status string `json:"status"`
	// External marks traces whose ID the caller supplied via traceparent.
	External bool `json:"external,omitempty"`
	// DroppedSpans counts spans past the per-trace cap (huge batch
	// requests) that were discarded rather than recorded.
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	Spans        []SpanData `json:"spans"`
}

// maxSpansPerTrace bounds one trace's span list so a large batch request
// cannot balloon the store; excess spans are counted, not kept.
const maxSpansPerTrace = 256

// ActiveTrace is a request trace still being assembled. Span and End are
// safe to call from many goroutines (worker shards write concurrently)
// and are nil-receiver-safe so untraced requests cost only the nil check.
type ActiveTrace struct {
	ts         *TraceStore
	rootSpanID string

	mu    sync.Mutex
	td    TraceData
	ended bool
}

// Start begins a request trace. traceID "" generates a fresh ID; external
// records that the caller supplied it (external traces are always kept
// through tail retention — a caller who sent a traceparent intends to look
// the trace up).
func (ts *TraceStore) Start(name, traceID string, external bool) *ActiveTrace {
	if traceID == "" {
		traceID = NewTraceID()
	}
	return &ActiveTrace{
		ts:         ts,
		rootSpanID: NewSpanID(),
		td: TraceData{
			TraceID:  traceID,
			Name:     name,
			Start:    time.Now(),
			External: external,
		},
	}
}

// TraceID returns the trace's ID ("" on a nil trace).
func (at *ActiveTrace) TraceID() string {
	if at == nil {
		return ""
	}
	return at.td.TraceID
}

// SpanID returns the root span's ID ("" on a nil trace).
func (at *ActiveTrace) SpanID() string {
	if at == nil {
		return ""
	}
	return at.rootSpanID
}

// Span appends one completed child span with an explicit start and
// duration — the shape the serving path produces, where queue wait is
// only known at dequeue time.
func (at *ActiveTrace) Span(name string, start time.Time, d time.Duration, attrs ...Attr) {
	if at == nil {
		return
	}
	at.mu.Lock()
	defer at.mu.Unlock()
	if at.ended {
		return
	}
	if len(at.td.Spans) >= maxSpansPerTrace {
		at.td.DroppedSpans++
		return
	}
	at.td.Spans = append(at.td.Spans, SpanData{
		Name:         name,
		TraceID:      at.td.TraceID,
		SpanID:       NewSpanID(),
		ParentSpanID: at.rootSpanID,
		Start:        start,
		Duration:     d,
		Attrs:        attrs,
	})
}

// End completes the trace with the given status and hands it to the
// store. Spans are sorted by start time so the stored breakdown reads in
// request order regardless of which shard finished first. A second End is
// a no-op.
func (at *ActiveTrace) End(status string) {
	if at == nil {
		return
	}
	at.mu.Lock()
	if at.ended {
		at.mu.Unlock()
		return
	}
	at.ended = true
	at.td.Duration = time.Since(at.td.Start)
	if status == "" {
		status = "ok"
	}
	at.td.Status = status
	sort.SliceStable(at.td.Spans, func(i, j int) bool {
		return at.td.Spans[i].Start.Before(at.td.Spans[j].Start)
	})
	td := at.td
	at.mu.Unlock()
	at.ts.add(&td)
}

// ---------------------------------------------------------------------------
// TraceStore: a bounded ring of completed traces with tail-based
// retention.

// TraceSummary is the list form of a stored trace.
type TraceSummary struct {
	TraceID    string        `json:"trace_id"`
	Name       string        `json:"name"`
	Start      time.Time     `json:"start"`
	Duration   time.Duration `json:"duration_ns"`
	DurationMS float64       `json:"duration_ms"`
	Status     string        `json:"status"`
	External   bool          `json:"external,omitempty"`
	Spans      int           `json:"spans"`
	Retained   bool          `json:"retained,omitempty"` // kept by tail retention
}

// TraceStore keeps completed traces in two bounded rings: a recent ring
// holding the newest traces regardless of outcome, and a retained ring
// that tail-retention feeds — slow traces (past the slow threshold),
// non-ok traces (error/shed/late), and externally-identified traces stay
// addressable even after the recent ring has cycled past them.
type TraceStore struct {
	slow time.Duration

	mu       sync.Mutex
	recent   *mathx.Ring[*TraceData]
	retained *mathx.Ring[*TraceData] // slow, error and external traces

	added    *Counter
	kept     *Counter
	reqCount atomic.Uint64 // sampling counter for SampleEvery
}

// NewTraceStore builds a store keeping up to capacity recent traces plus
// capacity/2 tail-retained ones. slow is the duration past which an "ok"
// trace is considered interesting enough to retain (0 takes 250ms).
func NewTraceStore(capacity int, slow time.Duration) *TraceStore {
	if capacity <= 0 {
		capacity = 256
	}
	if slow <= 0 {
		slow = 250 * time.Millisecond
	}
	half := capacity / 2
	if half < 16 {
		half = 16
	}
	return &TraceStore{
		slow:     slow,
		recent:   mathx.NewRing[*TraceData](capacity),
		retained: mathx.NewRing[*TraceData](half),
		added:    Default().Counter("chaos_traces_total", nil),
		kept:     Default().Counter("chaos_traces_retained_total", nil),
	}
}

// Sample reports whether the n-th unforced request should be traced at a
// 1-in-every sampling rate. every <= 0 disables sampling (only
// caller-identified requests trace).
func (ts *TraceStore) Sample(every int) bool {
	if ts == nil || every <= 0 {
		return false
	}
	return ts.reqCount.Add(1)%uint64(every) == 0
}

// interesting reports whether tail retention should keep the trace.
func (ts *TraceStore) interesting(td *TraceData) bool {
	return td.Status != "ok" || td.External || td.Duration >= ts.slow
}

func (ts *TraceStore) add(td *TraceData) {
	if ts == nil {
		return
	}
	ts.added.Inc()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.recent.Push(td)
	if ts.interesting(td) {
		ts.kept.Inc()
		ts.retained.Push(td)
	}
}

// Get returns the stored trace with the given ID, or nil. When a
// caller-supplied ID repeats, the retained ring answers before the recent
// one, and within a ring the oldest trace wins.
func (ts *TraceStore) Get(id string) *TraceData {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, ring := range [2]*mathx.Ring[*TraceData]{ts.retained, ts.recent} {
		for i := 0; i < ring.Len(); i++ {
			if td := ring.At(i); td.TraceID == id {
				return td
			}
		}
	}
	return nil
}

// List returns summaries of every stored trace, newest first, retained
// traces flagged. limit <= 0 returns everything. A repeated ID is listed
// once, as the oldest trace of the recent ring that carries it, else of
// the retained ring.
func (ts *TraceStore) List(limit int) []TraceSummary {
	ts.mu.Lock()
	inRetained := make(map[string]bool, ts.retained.Len())
	for i := 0; i < ts.retained.Len(); i++ {
		inRetained[ts.retained.At(i).TraceID] = true
	}
	held := ts.recent.Len() + ts.retained.Len()
	seen := make(map[string]bool, held)
	out := make([]TraceSummary, 0, held)
	add := func(td *TraceData) {
		if seen[td.TraceID] {
			return
		}
		seen[td.TraceID] = true
		out = append(out, TraceSummary{
			TraceID:    td.TraceID,
			Name:       td.Name,
			Start:      td.Start,
			Duration:   td.Duration,
			DurationMS: float64(td.Duration) / float64(time.Millisecond),
			Status:     td.Status,
			External:   td.External,
			Spans:      len(td.Spans),
			Retained:   inRetained[td.TraceID],
		})
	}
	for _, ring := range [2]*mathx.Ring[*TraceData]{ts.recent, ts.retained} {
		for i := 0; i < ring.Len(); i++ {
			add(ring.At(i))
		}
	}
	ts.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Len returns how many distinct traces are currently addressable.
func (ts *TraceStore) Len() int { return len(ts.List(0)) }

// Handler serves the trace API:
//
//	GET /debug/traces            JSON list of trace summaries (?limit=N)
//	GET /debug/traces/<trace-id> one full trace with its spans
//	GET /debug/traces?id=<id>    same single-trace view
func (ts *TraceStore) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		if id == "" {
			if rest := strings.TrimPrefix(r.URL.Path, "/debug/traces"); rest != "" && rest != "/" {
				id = strings.Trim(rest, "/")
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if id != "" {
			td := ts.Get(id)
			if td == nil {
				w.WriteHeader(http.StatusNotFound)
				json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf("unknown trace %q", id)}) //nolint:errcheck // client gone
				return
			}
			json.NewEncoder(w).Encode(td) //nolint:errcheck // client gone
			return
		}
		limit := 0
		if l := r.URL.Query().Get("limit"); l != "" {
			fmt.Sscanf(l, "%d", &limit) //nolint:errcheck // 0 on garbage is fine
		}
		list := ts.List(limit)
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck // client gone
			"count":  len(list),
			"traces": list,
		}) //nolint:errcheck
	})
}
