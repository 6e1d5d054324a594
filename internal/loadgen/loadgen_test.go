package loadgen

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/overload"
	"repro/internal/trace"
)

// flatTrace is a one-machine replay trace of the given length whose every
// second reads a=1, b=1 at 13 W.
func flatTrace(seconds int) *trace.Trace {
	x := mathx.NewMatrix(seconds, 2)
	power := make([]float64, seconds)
	for s := range seconds {
		x.Data[s*2], x.Data[s*2+1], power[s] = 1, 1, 13
	}
	return &trace.Trace{MachineID: "m1", Platform: "p", Names: []string{"a", "b"}, X: x, Power: power}
}

// holdServer answers every estimate 200 after holding it for hold.
func holdServer(t *testing.T, hold time.Duration) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(hold)
		fmt.Fprint(w, `{"status":200,"cluster_watts":13}`)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestLoadgenLatencyFromSchedule: with one slot and a server that holds
// each request 20 ms against a 10 ms schedule interval, every send starts
// 10 ms later than the one before it. Latency runs from the schedule, so
// it grows with that backlog to about 210 ms by the 20th request, not the
// 20 ms a round trip takes, and the run reports how late it sent.
func TestLoadgenLatencyFromSchedule(t *testing.T) {
	const hold = 20 * time.Millisecond
	stats, err := Run(Config{
		TargetURL: holdServer(t, hold),
		Traces:    []*trace.Trace{flatTrace(20)},
		Snapshots: 20, Rate: 100, Clients: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tier := stats.Tiers[overload.Interactive]
	t.Logf("p50 %s p99 %s max late %s", tier.P50, tier.P99, stats.MaxLate)
	if stats.ByStatus[http.StatusOK] != 20 || tier.Sent != 20 {
		t.Fatalf("by status %v, sent %d: want all 20 answered 200", stats.ByStatus, tier.Sent)
	}
	// The 20th send is due at 200 ms and starts near 390 ms.
	if stats.MaxLate < 150*time.Millisecond {
		t.Errorf("max lateness %s, want at least 150 ms behind the schedule", stats.MaxLate)
	}
	if tier.P99 < stats.MaxLate+hold {
		t.Errorf("p99 %s under the largest lateness %s plus the %s hold: latency is not timed from the schedule",
			tier.P99, stats.MaxLate, hold)
	}
	if tier.P50 < 5*hold {
		t.Errorf("p50 %s, want the backlog (~110 ms) in it, not one round trip", tier.P50)
	}
}

// TestLoadgenAchievedOverSendWindow: with enough slots and a server that
// holds each request 50 ms, the achieved rate is samples over the send
// window and comes within 1% of the paced rate; wall time, which takes
// in the last 50 ms drain, reads lower.
func TestLoadgenAchievedOverSendWindow(t *testing.T) {
	const rate = 200.0
	stats, err := Run(Config{
		TargetURL: holdServer(t, 50*time.Millisecond),
		Traces:    []*trace.Trace{flatTrace(100)},
		Snapshots: 400, Rate: rate, Clients: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ByStatus[http.StatusOK] != 400 {
		t.Fatalf("by status %v, want all 400 answered 200", stats.ByStatus)
	}
	got := stats.AchievedPerSec()
	t.Logf("achieved %.1f/s over %s, %.1f/s over wall %s, max late %s",
		got, stats.Window, stats.SamplesPerSec(), stats.Wall, stats.MaxLate)
	if math.Abs(got-rate)/rate > 0.01 {
		t.Errorf("achieved %.1f samples/s, want within 1%% of the paced %.0f", got, rate)
	}
	if stats.SamplesPerSec() >= got {
		t.Errorf("wall-time rate %.1f/s not under the send-window rate %.1f/s", stats.SamplesPerSec(), got)
	}
}

// TestLoadgenQuantilesNearestRank: latency quantiles use the nearest-rank
// rule, ceil(q·n)−1, the rule obs.Window and perfbench read: at n = 532
// the median is the 266th smallest, and at n = 100 the p99 is the 99th.
func TestLoadgenQuantilesNearestRank(t *testing.T) {
	cases := []struct {
		n                int
		wantP50, wantP99 int // zero-based ranks
	}{
		{532, 265, 526},
		{100, 49, 98},
		{1, 0, 0},
		{2, 0, 1},
	}
	for _, tc := range cases {
		ds := make([]time.Duration, tc.n)
		for i := range ds {
			ds[i] = time.Duration(tc.n-1-i) * time.Millisecond // reversed: quantiles sorts
		}
		p50, p99 := quantiles(ds)
		if want := time.Duration(tc.wantP50) * time.Millisecond; p50 != want {
			t.Errorf("n=%d: p50 %s, want %s", tc.n, p50, want)
		}
		if want := time.Duration(tc.wantP99) * time.Millisecond; p99 != want {
			t.Errorf("n=%d: p99 %s, want %s", tc.n, p99, want)
		}
	}
}

// TestServeLoadgenPriorityDraw: the per-request priority draw is a pure
// function of (seed, request), lands on each tier in proportion to its
// weight, never picks a zero-weight tier, sends everything interactive
// when no weight is set, and allocates nothing.
func TestServeLoadgenPriorityDraw(t *testing.T) {
	const seed, groups = 7, 8000
	cases := []struct {
		name    string
		weights [overload.NumPriorities]int
		wantPct [overload.NumPriorities]float64
	}{
		{"1:3:4 mix", [overload.NumPriorities]int{1, 3, 4}, [overload.NumPriorities]float64{12.5, 37.5, 50}},
		{"zero-weight batch", [overload.NumPriorities]int{1, 0, 4}, [overload.NumPriorities]float64{20, 0, 80}},
		{"background only", [overload.NumPriorities]int{0, 0, 5}, [overload.NumPriorities]float64{0, 0, 100}},
		{"all zero", [overload.NumPriorities]int{}, [overload.NumPriorities]float64{100, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var n [overload.NumPriorities]int
			for g := 0; g < groups; g++ {
				p := drawPriority(tc.weights, seed, g)
				if again := drawPriority(tc.weights, seed, g); again != p {
					t.Fatalf("group %d drew %v then %v", g, p, again)
				}
				n[p]++
			}
			for p, want := range tc.wantPct {
				got := 100 * float64(n[p]) / groups
				if want == 0 && n[p] != 0 {
					t.Errorf("%v drawn %d times at weight 0", overload.Priority(p), n[p])
				}
				if math.Abs(got-want) > 2 {
					t.Errorf("%v share %.2f%%, want %.1f%% ± 2", overload.Priority(p), got, want)
				}
			}
			g := 0
			if allocs := testing.AllocsPerRun(100, func() {
				drawPriority(tc.weights, seed, g)
				g++
			}); allocs != 0 {
				t.Errorf("%v allocs per draw, want 0", allocs)
			}
		})
	}
}
