package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/serve"
	"repro/internal/trace"
)

// syncWriter is a race-clean event sink target; read it only after the
// writers have quiesced.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// events parses the sink's JSON lines and counts them by event name.
func (w *syncWriter) events(t *testing.T) map[string]int {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	counts := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(w.buf.Bytes()))
	for sc.Scan() {
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		counts[ev.Event]++
	}
	return counts
}

// stormTrace builds a flat synthetic replay trace: every second is a=1,
// b=1 (13 W under the v1 test model).
func stormTrace(machine string, seconds int) *trace.Trace {
	x := mathx.NewMatrix(seconds, len(serve.TestNames))
	power := make([]float64, seconds)
	for s := 0; s < seconds; s++ {
		x.Data[s*2] = 1
		x.Data[s*2+1] = 1
		power[s] = 13
	}
	return &trace.Trace{MachineID: machine, Platform: "p", Names: serve.TestNames, X: x, Power: power}
}

// runStorm replays the seeded surge scenario — 1 s at half capacity, a
// 10x storm for 2 s (5x engine capacity), then a 3 s recovery tail —
// against one engine. PredictStall pins predict capacity at
// Shards x BatchMax / PredictStall = 400 samples/s on any hardware, so
// the load multipliers mean the same thing everywhere.
func runStorm(t *testing.T, adaptive bool, sink *obs.EventSink) (*loadgen.Stats, *serve.Server) {
	t.Helper()
	cfg := serve.Config{
		Shards: 1, QueueDepth: 256,
		BatchWindow: 500 * time.Microsecond, BatchMax: 4,
		Deadline:     100 * time.Millisecond,
		PredictStall: 10 * time.Millisecond,
	}
	if adaptive {
		cfg.Overload = &overload.Config{
			Limiter: overload.LimiterConfig{
				// Min keeps two full batches in flight so the drain rate
				// never collapses below engine capacity; Tolerance places
				// the latency target (~4x the 12ms uncongested floor)
				// under the 100ms deadline so admitted work still
				// finishes in time; the tight bulk fractions reserve most
				// of the limit for tier 0, whose storm arrival rate is a
				// large slice of capacity.
				Min: 8, Tolerance: 3,
				TierFrac: [overload.NumPriorities]float64{1, 0.25, 0.1},
			},
			Events: sink,
		}
		cfg.Events = sink
	}
	srv, base := serve.NewTestServer(t, cfg)
	stats, err := loadgen.Run(loadgen.Config{
		TargetURL: base,
		Traces:    []*trace.Trace{stormTrace("m1", 30)},
		// Enough in-flight slots that the offered storm stays open-loop:
		// with few, every request waits behind the queue for a slot and
		// runs ever later.
		Snapshots: 4800, Rate: 200, Clients: 256, Batch: 1,
		Scenario: &faults.Scenario{
			Load: []faults.LoadSurge{{StartS: 1, EndS: 3, Multiplier: 10}},
		},
		Seed:            42,
		PriorityWeights: [overload.NumPriorities]int{1, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, srv
}

// TestOverloadStormGoodput drives the same 5x overload storm into a
// static-shed engine (bounded queue only) and an adaptive one (AIMD
// limiter + strict-priority shedding + brownout ladder) and checks the
// tentpole contract: interactive goodput at least doubles, no priority
// inversions, and the brownout ladder enters under pressure and fully
// exits through hysteresis after the storm passes.
func TestOverloadStormGoodput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second storm replay")
	}

	baseStats, _ := runStorm(t, false, nil)
	w := &syncWriter{}
	adStats, srv := runStorm(t, true, obs.NewEventSink(w))

	// The storm must actually overload both engines.
	if baseStats.ByStatus[http.StatusTooManyRequests]+baseStats.ByStatus[http.StatusGatewayTimeout] == 0 {
		t.Fatal("static baseline never shed or timed out; the storm did not overload it")
	}
	if adStats.ByStatus[http.StatusTooManyRequests] == 0 {
		t.Fatal("adaptive engine never shed; the limiter did not engage")
	}

	// Interactive goodput: the adaptive engine keeps serving tier 0 while
	// shedding the bulk tiers; the static queue sheds and times out
	// blindly across tiers.
	baseOK := baseStats.Tiers[overload.Interactive].ByStatus[http.StatusOK]
	adOK := adStats.Tiers[overload.Interactive].ByStatus[http.StatusOK]
	floor := baseOK
	if floor < 1 {
		floor = 1
	}
	t.Logf("interactive goodput: static=%d adaptive=%d (sent %d/%d)",
		baseOK, adOK, baseStats.Tiers[overload.Interactive].Sent, adStats.Tiers[overload.Interactive].Sent)
	t.Logf("static interactive: %+v", baseStats.Tiers[overload.Interactive])
	t.Logf("adaptive interactive: %+v", adStats.Tiers[overload.Interactive])
	t.Logf("adaptive batch: %+v", adStats.Tiers[overload.Batch])
	t.Logf("adaptive background: %+v", adStats.Tiers[overload.Background])
	if adOK < 2*floor {
		t.Errorf("adaptive interactive goodput %d < 2x static baseline %d", adOK, baseOK)
	}

	// Zero priority inversions: no tick shed tier 0 while admitting tier 2.
	if inv := srv.Overload().InversionTicks(); inv != 0 {
		t.Errorf("priority inversions in %d tick(s), want 0", inv)
	}

	// Brownout lifecycle: the ladder must have entered during the storm
	// and must fully unwind to normal through exit hysteresis once load
	// falls back to half capacity.
	deadline := time.Now().Add(10 * time.Second)
	for srv.BrownoutLevel() != overload.LevelNormal && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if lvl := srv.BrownoutLevel(); lvl != overload.LevelNormal {
		t.Fatalf("brownout level %d after the storm, want full exit to %d", lvl, overload.LevelNormal)
	}
	evs := w.events(t)
	if evs["brownout_enter"] == 0 {
		t.Error("no brownout_enter event during the storm")
	}
	if evs["brownout_exit"] == 0 {
		t.Error("no brownout_exit event after the storm")
	}

	for _, stats := range []*loadgen.Stats{baseStats, adStats} {
		if n := stats.ByStatus[0]; n != 0 {
			t.Errorf("transport errors %d, want 0 (server stayed up)", n)
		}
	}
}

// TestServeBatchThroughputAmortization is the acceptance check: the
// batched endpoint must sustain at least 5x the snapshot throughput of
// the single-sample endpoint at equal error, because one HTTP round trip
// and one queue wakeup amortize across the whole payload.
func TestServeBatchThroughputAmortization(t *testing.T) {
	_, base := serve.NewTestServer(t, serve.Config{Shards: 2, QueueDepth: 4096, BatchMax: 256})
	traces := syntheticTraces(t, 3, 200)

	firstErr := math.NaN()
	run := func(batch int) *loadgen.Stats {
		stats, err := loadgen.Run(loadgen.Config{
			TargetURL:    base,
			Traces:       traces,
			Snapshots:    2000,
			Clients:      4,
			Batch:        batch,
			IncludeMeter: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.ByStatus[http.StatusOK] != 2000 || len(stats.ByStatus) != 1 {
			t.Fatalf("batch=%d: snapshots by status %v, want all 2000 answered 200", batch, stats.ByStatus)
		}
		// Equal error: identical model, identical inputs — identical
		// estimates on every run, single or batched.
		if math.IsNaN(firstErr) {
			firstErr = stats.MeanAbsErr()
		} else if d := math.Abs(stats.MeanAbsErr() - firstErr); d > 1e-9 {
			t.Errorf("batch=%d changed accuracy: %.6f W vs %.6f W", batch, stats.MeanAbsErr(), firstErr)
		}
		return stats
	}
	best := func(cur, s *loadgen.Stats) *loadgen.Stats {
		if cur == nil || s.SamplesPerSec() > cur.SamplesPerSec() {
			return s
		}
		return cur
	}
	// One wall-clock run moves with whatever else holds the CPU, so three
	// single/batched pairs run in alternating order and each side is
	// judged by its best run.
	var single, batched *loadgen.Stats
	for pair := 0; pair < 3; pair++ {
		if pair%2 == 0 {
			single = best(single, run(1))
			batched = best(batched, run(32))
		} else {
			batched = best(batched, run(32))
			single = best(single, run(1))
		}
	}

	ratio := batched.SamplesPerSec() / single.SamplesPerSec()
	// Every request is interactive: the run sets no priority weights.
	t.Logf("best single: %.0f samples/s (p99 %s); best batched: %.0f samples/s (p99 %s); ratio %.1fx",
		single.SamplesPerSec(), single.Tiers[overload.Interactive].P99,
		batched.SamplesPerSec(), batched.Tiers[overload.Interactive].P99, ratio)
	if ratio < 5 {
		t.Errorf("batched throughput only %.1fx single, want >= 5x", ratio)
	}
}

// syntheticTraces builds n aligned machine traces over serve.TestNames whose
// metered power equals the v1 model's prediction, so MeanAbsErr is
// exactly zero when serving v1.
func syntheticTraces(t *testing.T, machines, seconds int) []*trace.Trace {
	t.Helper()
	out := make([]*trace.Trace, machines)
	for m := 0; m < machines; m++ {
		b := trace.NewBuilder("p", "synthetic", fmt.Sprintf("m%d", m), 0, serve.TestNames, 0)
		for i := 0; i < seconds; i++ {
			a := float64((i + m) % 50)
			bb := float64((i * (m + 1)) % 30)
			watts := 10 + a + 2*bb // matches the v1 fixture: 10 + a + 2b
			if err := b.Add([]float64{a, bb}, watts, watts); err != nil {
				t.Fatal(err)
			}
		}
		tr, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		out[m] = tr
	}
	return out
}
