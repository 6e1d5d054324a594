package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one request or operation share Req; a
// root span has Parent 0. Times are nanoseconds since the ledger began.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// ledger keeps every span of a traced run in memory; write saves them
// when the run ends.
type ledger struct {
	origin time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newLedger() *ledger {
	return &ledger{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now is the ledger clock.
func (l *ledger) now() int64 { return int64(time.Since(l.origin)) }

// newID reserves a span id, for parents whose children finish first.
func (l *ledger) newID() uint64 { return l.ids.Add(1) }

// add records a finished span under a fresh id and returns the id.
func (l *ledger) add(name string, parent, req uint64, start, end int64) uint64 {
	id := l.newID()
	l.addID(id, name, parent, req, start, end)
	return id
}

// addID records a finished span under a reserved id.
func (l *ledger) addID(id uint64, name string, parent, req uint64, start, end int64) {
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	l.mu.Unlock()
}

// drop forgets the spans with the given names (the warm-up's traffic).
func (l *ledger) drop(names ...string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.spans[:0]
	for _, s := range l.spans {
		keep := true
		for _, n := range names {
			keep = keep && s.Name != n
		}
		if keep {
			kept = append(kept, s)
		}
	}
	l.spans = kept
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n     int
	total int64 // summed span durations
	self  int64 // summed self times: duration minus children's durations
}

// stats returns per-name totals and self times. A span's self time is its
// duration minus its children's durations.
func (l *ledger) stats() map[string]*layerStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[uint64]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := map[string]*layerStat{}
	for _, s := range l.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		self := s.dur() - children[s.ID]
		st.n++
		st.total += s.dur()
		st.self += self
	}
	return out
}

// meanMS is the mean duration of the named spans in milliseconds.
func (l *ledger) meanMS(name string) (float64, int) {
	st := l.stats()[name]
	if st == nil || st.n == 0 {
		return 0, 0
	}
	return float64(st.total) / float64(st.n) / 1e6, st.n
}

// coverage names, for each parent span, the layers below it whose summed
// span durations must account for the parent's: the parent's time that no
// named layer covers is time the ledger cannot attribute. The parents are
// the no-socket ServeHTTP (its children are timed apart from it on the
// same body, so they can also overrun it), the capped run and the model
// build (whose children nest inside them in time).
var coverage = []struct {
	parent string
	layers []string
}{
	{"serve.http", []string{"serve.read", "serve.decode", "serve.engine", "serve.encode"}},
	{"dccap.capped_run", []string{"cluster.run_until", "dccap.score"}},
	{"train.build", []string{"featsel.select", "models.fit_linear", "models.fit_piecewise",
		"models.fit_quadratic", "models.fit_switching", "core.cv"}},
}

// coverageTolerance bounds how far the named layers' summed time may fall
// short of, or run past, their parents' (NOTES.md, "Tracing").
const coverageTolerance = 0.10

// checkCoverage verifies, for each parent span name present, that its
// named layers account for it: the durations of the spans with those names
// directly under the parent's instances, summed, must come within
// coverageTolerance of the parents' summed duration. It prints each
// layer's share and the unattributed remainder.
func (b *bench) checkCoverage() {
	l := b.led
	l.mu.Lock()
	spans := l.spans
	l.mu.Unlock()
	for _, c := range coverage {
		parentNS := map[uint64]int64{}
		var total int64
		for _, s := range spans {
			if s.Name == c.parent {
				parentNS[s.ID] = s.dur()
				total += s.dur()
			}
		}
		if total == 0 {
			continue
		}
		byLayer := map[string]int64{}
		var covered int64
		for _, s := range spans {
			if _, ok := parentNS[s.Parent]; ok && slices.Contains(c.layers, s.Name) {
				byLayer[s.Name] += s.dur()
				covered += s.dur()
			}
		}
		share := float64(covered) / float64(total)
		b.note("coverage %s (%d spans): named layers sum to %.2f%% of it (tolerance ±%.0f%%)",
			c.parent, len(parentNS), 100*share, 100*coverageTolerance)
		for _, name := range c.layers {
			b.note("  %-24s %7.2f%%", name, 100*float64(byLayer[name])/float64(total))
		}
		b.note("  %-24s %7.2f%%", "(unattributed)", 100*(1-share))
		if math.Abs(share-1) > coverageTolerance {
			b.fail("the layers under %s cover %.2f%% of it, outside ±%.0f%%", c.parent, 100*share, 100*coverageTolerance)
		}
	}
}

// write saves the spans as JSON under .bench_build/spans in the working
// directory (the checkout root).
func (l *ledger) write(workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	data, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), data, 0o644)
}
