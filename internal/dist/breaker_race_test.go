package dist

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestOverloadBreakerHalfOpenSingleProbe locks in the half-open contract
// of the per-peer faults.Breaker under concurrency, as the scatter path
// drives it: once the cooldown elapses, exactly one caller wins the probe
// slot until that probe's Success or Failure settles the state. Many
// goroutines hammer Allow at the same fake instant; only one may pass per
// probe cycle.
func TestOverloadBreakerHalfOpenSingleProbe(t *testing.T) {
	var clock atomic.Int64 // unix nanos, shared fake clock
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	b := faults.NewBreaker(1, time.Second)
	b.Failure(now()) // trip it: open, probe at t=1s
	clock.Store(int64(2 * time.Second))
	if got := b.State(now()); got != "half-open" {
		t.Fatalf("state after cooldown = %q, want half-open", got)
	}

	const goroutines = 32
	var admitted atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if b.Allow(now()) {
				admitted.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly 1", got)
	}

	// A failed probe re-arms the cooldown: nobody gets in before it ends,
	// exactly one probe after.
	b.Failure(now())
	if b.Allow(now()) {
		t.Fatal("breaker admitted a call during the re-armed cooldown")
	}
	clock.Store(int64(4 * time.Second))
	admitted.Store(0)
	var wg2 sync.WaitGroup
	start2 := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			<-start2
			if b.Allow(now()) {
				admitted.Add(1)
			}
		}()
	}
	close(start2)
	wg2.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("second probe cycle admitted %d, want exactly 1", got)
	}

	// A successful probe closes the breaker for everyone.
	b.Success()
	if !b.Allow(now()) || b.State(now()) != "closed" {
		t.Fatalf("breaker did not close after a successful probe (state %q)", b.State(now()))
	}
}

// TestOverloadBreakerConcurrentTransitions races Allow/Success/Failure
// from many goroutines across moving fake time. The assertions are the
// invariants the race detector cannot see: the breaker always lands in a
// legal state, and a closed breaker always admits.
func TestOverloadBreakerConcurrentTransitions(t *testing.T) {
	var clock atomic.Int64
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	b := faults.NewBreaker(3, 50*time.Millisecond)

	const goroutines = 8
	const opsEach = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				clock.Add(int64(time.Millisecond))
				if b.Allow(now()) {
					// Mixed outcomes keep the state machine cycling
					// through closed → open → half-open → closed.
					if (g+i)%3 == 0 {
						b.Failure(now())
					} else {
						b.Success()
					}
				}
				switch s := b.State(now()); s {
				case "closed", "open", "half-open":
				default:
					t.Errorf("illegal breaker state %q", s)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Settle: one success must always yield a closed, admitting breaker.
	b.Success()
	if b.State(now()) != "closed" || !b.Allow(now()) {
		t.Fatalf("breaker not closed after final success (state %q)", b.State(now()))
	}
}
