package faults

import (
	"testing"

	"repro/internal/counters"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// okFetch returns a fixed row with no error.
func okFetch() ([]float64, error) { return []float64{1, 2, 3}, nil }

// TestFaultCollectorCleanPathPassesThrough: with an empty scenario every
// second succeeds on the first attempt and the breaker stays closed.
func TestFaultCollectorCleanPathPassesThrough(t *testing.T) {
	inj, err := NewInjector(&Scenario{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector("m0", inj, DefaultRetry(), DefaultBreaker())
	if err != nil {
		t.Fatal(err)
	}
	for sec := 0; sec < 20; sec++ {
		res, err := c.Collect(sec, okFetch)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK || res.Attempts != 1 || res.Row == nil {
			t.Fatalf("second %d: %+v, want clean single-attempt success", sec, res)
		}
		if st := c.State(sec); st != "closed" {
			t.Fatalf("breaker %s on clean path", st)
		}
	}
}

// TestFaultCollectorRetryRecoversDrops: with a 50% per-attempt drop rate,
// three attempts recover most seconds — strictly more than a single
// attempt does on the identical fault stream.
func TestFaultCollectorRetryRecoversDrops(t *testing.T) {
	sc := &Scenario{Defaults: MachineFaults{DropProb: 0.5}}
	okWith := func(attempts int) int {
		inj, err := NewInjector(sc, 11)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCollector("m0", inj,
			RetryPolicy{MaxAttempts: attempts, BackoffMS: 1, TimeoutMS: 500, AttemptCostMS: 1},
			BreakerConfig{FailThreshold: 1 << 30, CooldownSeconds: 1})
		if err != nil {
			t.Fatal(err)
		}
		ok := 0
		for sec := 0; sec < 400; sec++ {
			res, err := c.Collect(sec, okFetch)
			if err != nil {
				t.Fatal(err)
			}
			if res.OK {
				ok++
			}
		}
		return ok
	}
	one, three := okWith(1), okWith(3)
	if three <= one {
		t.Fatalf("retries did not help: %d/400 with 3 attempts vs %d/400 with 1", three, one)
	}
	// 1 - 0.5^3 = 87.5% expected; allow generous slack for the finite run.
	if three < 300 {
		t.Fatalf("only %d/400 seconds recovered with 3 attempts", three)
	}
}

// TestFaultCollectorTimeout: a guaranteed latency spike bigger than the
// budget times every sample out.
func TestFaultCollectorTimeout(t *testing.T) {
	inj, err := NewInjector(&Scenario{
		Defaults: MachineFaults{LatencyProb: 1, LatencyMS: 1000},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector("m0", inj,
		RetryPolicy{MaxAttempts: 3, BackoffMS: 10, TimeoutMS: 250, AttemptCostMS: 2},
		BreakerConfig{FailThreshold: 1 << 30, CooldownSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Collect(0, okFetch)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || !res.TimedOut {
		t.Fatalf("result %+v, want timeout", res)
	}
}

// TestFaultCollectorBreakerQuarantineAndRecovery walks the breaker
// through a crash: closed -> open after the fail threshold -> quarantined
// (zero attempts) through the cooldown -> half-open probes -> closed
// again once the machine is back.
func TestFaultCollectorBreakerQuarantineAndRecovery(t *testing.T) {
	const crashAt, downtime = 10, 20
	inj, err := NewInjector(&Scenario{
		Crashes: []Crash{{Machine: "m0", AtS: crashAt, DowntimeS: downtime}},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	brk := BreakerConfig{FailThreshold: 3, CooldownSeconds: 5}
	c, err := NewCollector("m0", inj, DefaultRetry(), brk)
	if err != nil {
		t.Fatal(err)
	}
	quarantined, recoveredAt := 0, -1
	for sec := 0; sec < crashAt+downtime+brk.CooldownSeconds+2; sec++ {
		res, err := c.Collect(sec, okFetch)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case sec < crashAt:
			if !res.OK {
				t.Fatalf("second %d failed before the crash: %+v", sec, res)
			}
		case sec < crashAt+brk.FailThreshold:
			if !res.Down {
				t.Fatalf("second %d not Down at crash start: %+v", sec, res)
			}
		default:
			if res.Quarantined {
				quarantined++
				if res.Attempts != 0 {
					t.Fatalf("quarantined second %d made %d attempts", sec, res.Attempts)
				}
			}
			if res.OK && recoveredAt < 0 {
				recoveredAt = sec
			}
		}
	}
	if quarantined == 0 {
		t.Fatal("breaker never quarantined the crashing machine")
	}
	if recoveredAt < crashAt+downtime {
		t.Fatalf("recovered at %d while still down (crash ends at %d)", recoveredAt, crashAt+downtime)
	}
	// A half-open probe fires at most one cooldown after the machine
	// returns, so recovery is bounded.
	if recoveredAt > crashAt+downtime+brk.CooldownSeconds {
		t.Fatalf("recovered at %d, want <= %d", recoveredAt, crashAt+downtime+brk.CooldownSeconds)
	}
	if st := c.State(recoveredAt); st != "closed" {
		t.Fatalf("breaker %s after recovery", st)
	}
}

// TestFaultCollectorWrapsTelemetry drives a real telemetry.Collector +
// simulated machine through the fault pipeline: the adapter must deliver
// genuine counter rows of the registry's width.
func TestFaultCollectorWrapsTelemetry(t *testing.T) {
	cluster, err := telemetry.New("Core2", 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	m := cluster.Machines[0]
	tc := telemetry.NewCollector(cluster.Registry, 42)
	inj, err := NewInjector(&Scenario{
		Defaults: MachineFaults{CorruptProb: 1},
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector(m.ID, inj, DefaultRetry(), DefaultBreaker())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_, sig, _ := m.Step(sim.Demand{CPU: 1})
		res, err := c.Collect(i, func() ([]float64, error) { return tc.Sample(counters.Signals(sig)) })
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("second %d: telemetry collection failed: %+v", i, res)
		}
		if len(res.Row) != cluster.Registry.Len() {
			t.Fatalf("row has %d counters, registry has %d", len(res.Row), cluster.Registry.Len())
		}
		if res.Corrupted == 0 {
			t.Fatalf("second %d: corruption never applied through the wrapper", i)
		}
	}
	if tc.Samples() != 5 {
		t.Fatalf("inner collector sampled %d times, want 5", tc.Samples())
	}
}

// TestFaultCollectorValidation covers constructor error paths.
func TestFaultCollectorValidation(t *testing.T) {
	inj, err := NewInjector(&Scenario{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCollector("", inj, RetryPolicy{}, BreakerConfig{}); err == nil {
		t.Error("expected error for empty machine ID")
	}
	if _, err := NewCollector("m0", nil, RetryPolicy{}, BreakerConfig{}); err == nil {
		t.Error("expected error for nil injector")
	}
	if _, err := NewCollector("m0", inj, RetryPolicy{BackoffMS: -1}, BreakerConfig{}); err == nil {
		t.Error("expected error for negative backoff")
	}
	// Zero-valued policies take defaults.
	c, err := NewCollector("m0", inj, RetryPolicy{}, BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c.Collect(0, okFetch); err != nil || !res.OK {
		t.Fatalf("defaulted collector failed: %+v, %v", res, err)
	}
}
