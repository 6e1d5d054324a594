package overload

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock drives a limiter deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestOverloadParsePriority(t *testing.T) {
	cases := map[string]Priority{
		"":             Interactive,
		"interactive":  Interactive,
		"Interactive":  Interactive,
		" batch ":      Batch,
		"BACKGROUND":   Background,
		"nonsense-999": Interactive, // unknown must not demote
	}
	for in, want := range cases {
		if got := ParsePriority(in); got != want {
			t.Errorf("ParsePriority(%q) = %v, want %v", in, got, want)
		}
	}
	for p, name := range map[Priority]string{Interactive: "interactive", Batch: "batch", Background: "background"} {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), name)
		}
		if ParsePriority(p.String()) != p {
			t.Errorf("round trip failed for %q", name)
		}
	}
}

func TestOverloadLimiterGradient(t *testing.T) {
	clk := newFakeClock()
	l := newLimiterAt(LimiterConfig{Initial: 100, Min: 2, Max: 200, Tick: 10 * time.Millisecond}, clk.now)

	// Healthy latency establishes the baseline near 1ms.
	for i := 0; i < 50; i++ {
		if d := l.Acquire(Interactive); !d.Admit {
			t.Fatalf("healthy acquire %d shed", i)
		}
		l.Release(time.Millisecond)
		clk.advance(2 * time.Millisecond)
	}
	before := l.Snapshot().Limit

	// Sustained 50x latency must drive the limit down multiplicatively.
	for i := 0; i < 200; i++ {
		if d := l.Acquire(Interactive); d.Admit {
			l.Release(50 * time.Millisecond)
		}
		clk.advance(2 * time.Millisecond)
	}
	mid := l.Snapshot().Limit
	if mid >= before/2 {
		t.Fatalf("limit did not collapse under latency: before=%g mid=%g", before, mid)
	}

	// Recovery: healthy latency grows the limit back additively, gated on
	// the limit being exercised.
	for i := 0; i < 400; i++ {
		if d := l.Acquire(Interactive); d.Admit {
			l.Release(time.Millisecond)
		}
		clk.advance(2 * time.Millisecond)
	}
	after := l.Snapshot().Limit
	if after <= mid {
		t.Fatalf("limit did not recover: mid=%g after=%g", mid, after)
	}
}

func TestOverloadLimiterStrictPriorityThresholds(t *testing.T) {
	clk := newFakeClock()
	l := newLimiterAt(LimiterConfig{Initial: 10, Min: 10, Max: 10, Tick: time.Hour}, clk.now)

	// Fill to background's threshold (50% of 10 = 5).
	for i := 0; i < 5; i++ {
		if d := l.Acquire(Background); !d.Admit {
			t.Fatalf("background %d shed below threshold", i)
		}
	}
	// Background now at its threshold: next background sheds...
	if d := l.Acquire(Background); d.Admit {
		t.Fatal("background admitted past its tier threshold")
	}
	if d := l.Acquire(Background); d.Admit {
		t.Fatal("background admitted past its tier threshold")
	} else if d.RetryAfter <= 0 {
		t.Fatal("shed decision carries no RetryAfter")
	}
	// ...but batch and interactive still get in (7.5 and 10 thresholds).
	if d := l.Acquire(Batch); !d.Admit {
		t.Fatal("batch shed while under its threshold")
	}
	if d := l.Acquire(Interactive); !d.Admit {
		t.Fatal("interactive shed while under its threshold")
	}
}

func TestOverloadLimiterInversionGuards(t *testing.T) {
	clk := newFakeClock()
	l := newLimiterAt(LimiterConfig{Initial: 4, Min: 4, Max: 4, Tick: 10 * time.Millisecond}, clk.now)

	// Fill the limit entirely with background (threshold 2, then guard
	// boundary): 2 admitted.
	if !l.Acquire(Background).Admit || !l.Acquire(Background).Admit {
		t.Fatal("background could not fill its share")
	}
	// Interactive beyond the raw limit: 4 admitted at threshold 4 → two
	// more interactive fit, the next would shed...
	if !l.Acquire(Interactive).Admit || !l.Acquire(Interactive).Admit {
		t.Fatal("interactive shed under its threshold")
	}
	// ...but the inversion guard admits it because background (tier 2)
	// was admitted this tick.
	if d := l.Acquire(Interactive); !d.Admit {
		t.Fatal("inversion guard failed: interactive shed in a tick that admitted background")
	}

	// New tick: shed guard. Interactive fills the limit, then an
	// interactive shed must block later background for the rest of the
	// tick even if capacity frees up.
	clk.advance(20 * time.Millisecond)
	l2 := newLimiterAt(LimiterConfig{Initial: 2, Min: 2, Max: 2, Tick: time.Hour}, clk.now)
	if !l2.Acquire(Interactive).Admit || !l2.Acquire(Interactive).Admit {
		t.Fatal("interactive fill failed")
	}
	if l2.Acquire(Interactive).Admit {
		t.Fatal("interactive admitted past hard limit with no lower tier admitted")
	}
	l2.Release(time.Millisecond)
	l2.Release(time.Millisecond) // capacity is back...
	if l2.Acquire(Background).Admit {
		t.Fatal("shed guard failed: background admitted after interactive shed in the same tick")
	}
	if l2.Acquire(Interactive).Admit != true {
		t.Fatal("interactive should still be admissible")
	}
}

// TestOverloadLimiterNoInversionRace hammers one limiter from concurrent
// mixed-priority goroutines and asserts the structural invariant: no
// completed tick ever shed tier 0 while admitting tier 2.
func TestOverloadLimiterNoInversionRace(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 8, Min: 2, Max: 32, Tick: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				p := Priority(rng.Intn(NumPriorities))
				if d := l.Acquire(p); d.Admit {
					if rng.Intn(4) == 0 {
						l.Cancel(1)
					} else {
						l.Release(time.Duration(rng.Intn(3)) * time.Millisecond)
					}
				}
				if i%64 == 0 {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	l.Pressure() // roll the final tick
	if n := l.InversionTicks(); n != 0 {
		t.Fatalf("inversion ticks = %d, want 0", n)
	}
	st := l.Snapshot()
	if st.Inflight != 0 {
		t.Fatalf("inflight = %d after all releases, want 0", st.Inflight)
	}
}

func TestOverloadLadderHysteresis(t *testing.T) {
	b := NewLadder(LadderConfig{EnterTicks: 2, ExitTicks: 3})

	// One hot tick is not enough (EnterTicks=2).
	if lvl, ch := b.Observe(0.9); ch || lvl != 0 {
		t.Fatalf("entered on a single tick: lvl=%d", lvl)
	}
	if lvl, ch := b.Observe(0.9); !ch || lvl != 1 {
		t.Fatalf("did not enter after sustained pressure: lvl=%d", lvl)
	}
	// Climbing continues one rung at a time up to MaxLevel.
	for i := 0; i < 10; i++ {
		b.Observe(0.9)
	}
	if b.Level() != MaxLevel {
		t.Fatalf("level = %d, want max %d", b.Level(), MaxLevel)
	}

	// Pressure in the hysteresis band (below Enter, above Exit) holds.
	for i := 0; i < 10; i++ {
		if _, ch := b.Observe(0.3); ch {
			t.Fatal("level changed inside hysteresis band")
		}
	}
	if b.Level() != MaxLevel {
		t.Fatalf("level drifted in band: %d", b.Level())
	}

	// Quiet ticks descend, one rung per ExitTicks, all the way out.
	steps := 0
	for b.Level() > 0 {
		if _, ch := b.Observe(0.0); ch {
			steps++
		}
		if steps > 100 {
			t.Fatal("ladder never exited")
		}
	}
	if b.Level() != 0 {
		t.Fatalf("level = %d, want 0", b.Level())
	}
	// An exit interrupted by pressure resets the streak.
	b.Observe(0.9)
	b.Observe(0.9) // level 1
	b.Observe(0.0)
	b.Observe(0.0)
	b.Observe(0.9) // resets the down streak
	b.Observe(0.0)
	b.Observe(0.0)
	if b.Level() != 1 {
		t.Fatalf("down streak not reset by pressure: level=%d", b.Level())
	}
}

func TestOverloadHedgeBudgetBounds(t *testing.T) {
	h := NewHedgeBudget(0.1, 4)
	// Burst allowance first.
	granted := 0
	for i := 0; i < 10; i++ {
		if h.Allow() {
			granted++
		}
	}
	if granted != 4 {
		t.Fatalf("burst granted %d hedges, want 4", granted)
	}
	// Then strictly rate-limited: 100 primaries accrue 10 tokens.
	granted = 0
	for i := 0; i < 100; i++ {
		h.NotePrimary()
		if h.Allow() {
			granted++
		}
	}
	if granted < 8 || granted > 12 {
		t.Fatalf("rate-limited grants = %d, want ≈10", granted)
	}
	// Disabled budget never allows.
	off := NewHedgeBudget(0, 4)
	off.NotePrimary()
	if off.Allow() {
		t.Fatal("zero-rate budget allowed a hedge")
	}
}

func TestOverloadControllerBrownoutLifecycle(t *testing.T) {
	clk := newFakeClock()
	c := NewController(2, Config{
		Tick:    10 * time.Millisecond,
		Limiter: LimiterConfig{Initial: 4, Min: 4, Max: 4, Tick: time.Hour},
		Ladder:  LadderConfig{EnterTicks: 2, ExitTicks: 3},
	})
	_ = clk
	if c.Level() != 0 {
		t.Fatalf("initial level = %d", c.Level())
	}
	// Generate sustained pressure on shard 0: fill the limit then shed.
	hammer := func() {
		for i := 0; i < 8; i++ {
			c.LimiterFor(0).Acquire(Background)
		}
	}
	hammer()
	c.Step()
	hammer()
	c.Step()
	if c.Level() < 1 {
		t.Fatalf("level = %d after sustained pressure, want >= 1", c.Level())
	}
	st := c.Snapshot()
	if st.Shed["background"] == 0 {
		t.Fatal("snapshot missing shed accounting")
	}
	if st.InversionTicks != 0 {
		t.Fatalf("inversion ticks = %d", st.InversionTicks)
	}
	// Quiet steps walk the ladder back out.
	for i := 0; i < 40 && c.Level() > 0; i++ {
		c.Step()
	}
	if c.Level() != 0 {
		t.Fatalf("level = %d after quiet period, want 0", c.Level())
	}
}
