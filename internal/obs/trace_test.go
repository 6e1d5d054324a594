package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDUniquenessAndShape(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if len(id) != 32 || !isHex(id) {
			t.Fatalf("bad trace id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q after %d draws", id, i)
		}
		seen[id] = true
	}
	if s := NewSpanID(); len(s) != 16 || !isHex(s) {
		t.Fatalf("bad span id %q", s)
	}
}

func TestTraceparentParseFormat(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	h := FormatTraceparent(tid, sid)
	gotT, gotS, ok := ParseTraceparent(h)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("round trip failed: %q -> %q %q %v", h, gotT, gotS, ok)
	}
	bad := []string{
		"",
		"00-abc-def-01",
		"00-" + strings.Repeat("0", 32) + "-" + sid + "-01", // all-zero trace id
		"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", // all-zero span id
		"ff-" + tid + "-" + sid + "-01",                     // forbidden version
		"00-" + strings.ToUpper(tid) + "-" + sid + "-01",    // uppercase hex
		"00-" + tid + "-" + sid,                             // missing flags
		"00-" + tid + "-" + sid + "-01-extra",
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("accepted malformed traceparent %q", h)
		}
	}
}

func TestTraceStoreTailRetention(t *testing.T) {
	ts := NewTraceStore(32, 50*time.Millisecond)
	// Fill well past the recent ring with fast ok traces, planting one
	// error trace early — tail retention must keep it addressable.
	bad := ts.Start("req", "", false)
	bad.End("error")
	badID := bad.TraceID()
	ext := ts.Start("req", NewTraceID(), true)
	ext.End("ok")
	for i := 0; i < 200; i++ {
		at := ts.Start("req", "", false)
		at.End("ok")
	}
	if ts.Get(badID) == nil {
		t.Fatalf("error trace %s evicted despite tail retention", badID)
	}
	if ts.Get(ext.TraceID()) == nil {
		t.Fatalf("external trace %s evicted despite tail retention", ext.TraceID())
	}
	if ts.Get("no-such-id") != nil {
		t.Fatal("Get returned a trace for an unknown id")
	}
	// The list view flags the retained trace and newest-first ordering.
	list := ts.List(0)
	if len(list) == 0 {
		t.Fatal("empty list")
	}
	foundBad := false
	for _, s := range list {
		if s.TraceID == badID {
			foundBad = true
			if !s.Retained {
				t.Error("error trace not flagged retained")
			}
			if s.Status != "error" {
				t.Errorf("status %q", s.Status)
			}
		}
	}
	if !foundBad {
		t.Fatal("error trace missing from listing")
	}
	for i := 1; i < len(list); i++ {
		if list[i].Start.After(list[i-1].Start) {
			t.Fatal("listing not newest-first")
		}
	}
}

// TestTraceStoreRepeatedIDOldestFirst: when callers reuse a trace ID, Get
// and List resolve it to the oldest trace still held, also when the rings
// have wrapped between the two traces.
func TestTraceStoreRepeatedIDOldestFirst(t *testing.T) {
	ts := NewTraceStore(16, time.Hour) // 16 recent, 16 retained
	fill := func(n int) {
		for i := 0; i < n; i++ {
			ts.Start("filler", "", false).End("error")
		}
	}
	id := NewTraceID()
	fill(15)
	ts.Start("first", id, true).End("ok")  // the last slot of both rings
	ts.Start("second", id, true).End("ok") // wraps both rings
	if got := ts.Get(id).Name; got != "first" {
		t.Fatalf("Get(repeated id) = %q, want the oldest, first", got)
	}
	listed := 0
	for _, s := range ts.List(0) {
		if s.TraceID == id {
			listed++
			if s.Name != "first" || !s.Retained {
				t.Errorf("listed %+v, want first, retained", s)
			}
		}
	}
	if listed != 1 {
		t.Fatalf("repeated id listed %d times, want once", listed)
	}
	fill(15) // evicts first from both rings
	if got := ts.Get(id).Name; got != "second" {
		t.Fatalf("after first's eviction Get = %q, want second", got)
	}
}

func TestTraceStoreSpanCapAndNilSafety(t *testing.T) {
	ts := NewTraceStore(8, time.Second)
	at := ts.Start("big", "", false)
	now := time.Now()
	for i := 0; i < maxSpansPerTrace+10; i++ {
		at.Span("s", now, time.Millisecond)
	}
	at.End("")
	td := ts.Get(at.TraceID())
	if td == nil {
		t.Fatal("trace not stored")
	}
	if len(td.Spans) != maxSpansPerTrace || td.DroppedSpans != 10 {
		t.Fatalf("spans %d dropped %d", len(td.Spans), td.DroppedSpans)
	}
	if td.Status != "ok" {
		t.Fatalf("empty status should normalize to ok, got %q", td.Status)
	}
	// Double End is a no-op; nil receivers never panic.
	at.End("error")
	if ts.Get(at.TraceID()).Status != "ok" {
		t.Fatal("second End overwrote the stored trace")
	}
	var nilAT *ActiveTrace
	nilAT.Span("x", now, 0)
	nilAT.End("ok")
	if nilAT.TraceID() != "" || nilAT.SpanID() != "" {
		t.Fatal("nil ActiveTrace returned ids")
	}
	var nilTS *TraceStore
	if nilTS.Sample(4) {
		t.Fatal("nil store sampled")
	}
}

func TestTraceStoreSampler(t *testing.T) {
	ts := NewTraceStore(8, time.Second)
	hits := 0
	for i := 0; i < 160; i++ {
		if ts.Sample(16) {
			hits++
		}
	}
	if hits != 10 {
		t.Fatalf("1-in-16 sampling over 160 draws hit %d times, want 10", hits)
	}
	if ts.Sample(0) || ts.Sample(-1) {
		t.Fatal("non-positive rate must disable sampling")
	}
}

func TestTraceStoreHTTPListAndGet(t *testing.T) {
	ts := NewTraceStore(16, time.Second)
	at := ts.Start("serve.estimate", "", false)
	at.Span("queue", time.Now(), 1*time.Millisecond, String("machine", "m0"))
	at.Span("predict", time.Now(), 2*time.Millisecond)
	at.End("ok")
	h := ts.Handler()

	// List view.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("list status %d", rec.Code)
	}
	var list struct {
		Count  int            `json:"count"`
		Traces []TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || list.Traces[0].TraceID != at.TraceID() || list.Traces[0].Spans != 2 {
		t.Fatalf("bad list %+v", list)
	}

	// Single-trace view, path and query forms.
	for _, url := range []string{"/debug/traces/" + at.TraceID(), "/debug/traces?id=" + at.TraceID()} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("%s status %d", url, rec.Code)
		}
		var td TraceData
		if err := json.Unmarshal(rec.Body.Bytes(), &td); err != nil {
			t.Fatal(err)
		}
		if len(td.Spans) != 2 || td.Spans[0].Name != "queue" || td.Spans[1].Name != "predict" {
			t.Fatalf("%s spans %+v", url, td.Spans)
		}
		if td.Spans[0].TraceID != at.TraceID() || td.Spans[0].ParentSpanID != at.SpanID() {
			t.Fatalf("span not linked to root: %+v", td.Spans[0])
		}
	}

	// Unknown id → 404.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/deadbeef", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown trace status %d", rec.Code)
	}
}

func TestTraceExemplarRenderingDeterministic(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", Labels{"endpoint": "estimate"}, ExpBuckets(1e-3, 4, 6))
	h.ObserveExemplar(0.002, "aaaa0000aaaa0000aaaa0000aaaa0000")
	h.ObserveExemplar(0.5, "bbbb0000bbbb0000bbbb0000bbbb0000")
	h.Observe(0.003) // untraced observation must not disturb the exemplar
	reg.Counter("reqs_total", nil).Inc()

	var a, b bytes.Buffer
	if err := reg.WriteOpenMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("exemplar rendering not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	out := a.String()
	want := `# {trace_id="aaaa0000aaaa0000aaaa0000aaaa0000"} 0.002`
	if !strings.Contains(out, want) {
		t.Fatalf("missing exemplar annotation %q in:\n%s", want, out)
	}
	// The exemplar rides the bucket line, after the cumulative count.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "aaaa0000") && !strings.Contains(line, "_bucket") {
			t.Fatalf("exemplar on a non-bucket line: %s", line)
		}
	}
	// OpenMetrics framing: terminating EOF, and the counter family's TYPE
	// line drops the _total suffix while the sample line keeps it.
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("OpenMetrics output missing terminating # EOF:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE reqs counter\n") || !strings.Contains(out, "reqs_total 1\n") {
		t.Fatalf("counter family not rendered per OpenMetrics:\n%s", out)
	}
}

// TestTraceExemplarsAbsentFromClassicFormat locks the negotiation
// contract: exemplar annotations are only legal in OpenMetrics, so the
// classic text format (what a default Prometheus scrape parses) must
// render plain bucket lines — a mid-line '#' after the value would make
// the whole scrape unparseable.
func TestTraceExemplarsAbsentFromClassicFormat(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", nil, ExpBuckets(1e-3, 4, 6))
	h.ObserveExemplar(0.002, "aaaa0000aaaa0000aaaa0000aaaa0000")

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Contains(line, "#") {
			t.Fatalf("classic format line carries a mid-line '#': %s", line)
		}
	}
	if strings.Contains(buf.String(), "# EOF") {
		t.Fatalf("classic format must not emit the OpenMetrics EOF marker:\n%s", buf.String())
	}
}

func TestTraceHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q", nil, []float64{1, 2, 4, 8})
	for i := 0; i < 90; i++ {
		h.Observe(0.5) // bucket le=1
	}
	for i := 0; i < 10; i++ {
		h.Observe(3) // bucket le=4
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %g, want 1", got)
	}
	if got := h.Quantile(0.99); got != 4 {
		t.Errorf("p99 = %g, want 4", got)
	}
	// A rank landing in the +Inf overflow bucket has no finite bound: the
	// estimate is saturated and says so instead of understating the tail.
	h.Observe(100)
	if got := h.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("+Inf quantile = %g, want +Inf", got)
	}
	var empty HistState
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
}

func TestTraceStoreConcurrent(t *testing.T) {
	ts := NewTraceStore(64, 10*time.Millisecond)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: produce traces with spans from several goroutines.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				at := ts.Start("req", "", false)
				at.Span("queue", time.Now(), time.Microsecond, Int("g", g))
				at.Span("predict", time.Now(), time.Microsecond)
				status := "ok"
				if i%7 == 0 {
					status = "shed"
				}
				at.End(status)
			}
		}(g)
	}
	// Readers: hammer List/Get while writes run.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range ts.List(16) {
					ts.Get(s.TraceID)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish quickly; then release the readers.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	<-done
	if ts.Len() == 0 {
		t.Fatal("no traces stored")
	}
}

func TestTraceBuildInfoGauge(t *testing.T) {
	reg := NewRegistry()
	bi := RegisterBuildInfo(reg)
	if bi.GoVersion == "" || bi.ModuleVersion == "" || bi.VCSRevision == "" {
		t.Fatalf("empty build info fields: %+v", bi)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "chaos_build_info{") || !strings.Contains(out, `go_version="`+bi.GoVersion+`"`) {
		t.Fatalf("chaos_build_info not rendered:\n%s", out)
	}
	if !strings.Contains(out, "} 1\n") {
		t.Fatalf("build info gauge not 1:\n%s", out)
	}
}

func TestTraceEventSinkRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.log")
	reg := NewRegistry()
	rw, err := NewRotatingWriter(path, 400, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	sink := NewEventSinkAt(rw, func() time.Time { return time.Unix(0, 0) }, reg)
	for i := 0; i < 20; i++ {
		if err := sink.Emit("tick", map[string]any{"i": i, "pad": strings.Repeat("x", 40)}); err != nil {
			t.Fatal(err)
		}
	}
	if rw.Rotations() == 0 {
		t.Fatal("no rotation despite exceeding the cap")
	}
	if reg.Counter("chaos_events_rotated_total", nil).Value() != rw.Rotations() {
		t.Fatal("rotation counter out of sync")
	}
	// Both generations exist; the live file is within the cap; every kept
	// line is intact JSON (rotation never splits a record).
	for _, p := range []string{path, path + ".1"} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("reading %s: %v", p, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", p)
		}
		for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("%s has a torn record %q: %v", p, line, err)
			}
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 400 {
		t.Fatalf("live log %d bytes exceeds the 400-byte cap", st.Size())
	}
	// Closed writer fails loudly instead of silently dropping events.
	rw.Close()
	if err := sink.Emit("after-close", nil); err == nil {
		t.Fatal("emit after close succeeded")
	}
}

func TestTraceRotatingWriterOversizeRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ev.log")
	rw, err := NewRotatingWriter(path, 64, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	big := []byte(fmt.Sprintf("{\"pad\":%q}\n", strings.Repeat("y", 200)))
	if _, err := rw.Write([]byte("{\"a\":1}\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Write(big); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, big) {
		t.Fatalf("oversize record not written whole after rotation: %q", data)
	}
}

// TestTraceRotatingWriterRecoversFromMissingFile exercises the failure
// ordering contract of rotate(): a rotation interrupted after the rename
// (or an operator deleting the live log) must not wedge the writer — the
// next rotation skips the rename and heals by reopening a fresh file.
func TestTraceRotatingWriterRecoversFromMissingFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ev.log")
	rw, err := NewRotatingWriter(path, 64, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	// Fill past the cap so the next write must rotate, then yank the live
	// file out from under the writer.
	if _, err := rw.Write([]byte(strings.Repeat("x", 80) + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Write([]byte("{\"after\":1}\n")); err != nil {
		t.Fatalf("write after losing the live file: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("writer did not heal onto a fresh file: %v", err)
	}
	if string(data) != "{\"after\":1}\n" {
		t.Fatalf("healed file content = %q", data)
	}
	if rw.Rotations() != 1 {
		t.Fatalf("rotations = %g, want 1", rw.Rotations())
	}
	// Subsequent writes keep working.
	if _, err := rw.Write([]byte("{\"more\":2}\n")); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}
