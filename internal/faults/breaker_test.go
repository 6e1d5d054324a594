package faults

import (
	"testing"
	"time"
)

// TestFaultBreakerSimAndWallClock drives the one Breaker through both of
// its clocks: the collector's second-by-second crash sequence, where sim
// second t is time.Unix(t, 0) and the collector reads State before each
// second, and dist's wall-clock sequence, where concurrent scatter calls
// go through Allow and only one half-open probe may pass.
func TestFaultBreakerSimAndWallClock(t *testing.T) {
	type step struct {
		at    time.Duration // offset from the clock's origin
		op    string        // "allow" or "deny" (Allow's answer), "fail", "ok", or "" (none)
		state string        // State at the step's time, after op
	}
	const s, ms = time.Second, time.Millisecond
	cases := []struct {
		name      string
		origin    time.Time
		threshold int
		cooldown  time.Duration
		steps     []step
	}{
		{
			// A machine crashes at second 10 and returns at 20 under a
			// 3-failure, 5 s breaker.
			name: "collector sim seconds", origin: time.Unix(0, 0), threshold: 3, cooldown: 5 * s,
			steps: []step{
				{9 * s, "ok", "closed"},
				{10 * s, "fail", "closed"},
				{11 * s, "fail", "closed"},
				{12 * s, "fail", "open"}, // quarantined through second 16
				{16 * s, "", "open"},
				{17 * s, "", "half-open"}, // one probe; the machine is still down
				{17 * s, "fail", "open"},  // re-armed through second 21
				{21 * s, "", "open"},
				{22 * s, "", "half-open"},
				{22 * s, "ok", "closed"},
				{23 * s, "fail", "closed"}, // the failure streak restarts from zero
			},
		},
		{
			name: "dist wall clock", origin: time.Unix(1000, 0), threshold: 3, cooldown: s,
			steps: []step{
				{0, "allow", "closed"},
				{0, "fail", "closed"},
				{0, "fail", "closed"},
				{0, "allow", "closed"},
				{0, "fail", "open"},
				{999 * ms, "deny", "open"},
				{1500 * ms, "allow", "half-open"}, // the probe
				{1500 * ms, "deny", "half-open"},  // no second concurrent probe
				{1500 * ms, "fail", "open"},
				{2499 * ms, "deny", "open"},
				{2500 * ms, "allow", "half-open"},
				{2500 * ms, "ok", "closed"},
				{2500 * ms, "allow", "closed"},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBreaker(c.threshold, c.cooldown)
			for i, st := range c.steps {
				now := c.origin.Add(st.at)
				switch st.op {
				case "allow", "deny":
					if got := b.Allow(now); got != (st.op == "allow") {
						t.Fatalf("step %d at %v: Allow = %v, want %v", i, st.at, got, st.op == "allow")
					}
				case "fail":
					b.Failure(now)
				case "ok":
					b.Success()
				}
				if got := b.State(now); got != st.state {
					t.Fatalf("step %d at %v after %q: state %q, want %q", i, st.at, st.op, got, st.state)
				}
			}
		})
	}
}
