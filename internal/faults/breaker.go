package faults

import (
	"sync"
	"time"
)

// Breaker is the repository's closed / open / half-open circuit breaker.
// It guards each machine's fault-aware Collector in simulation time and
// each of dist's scatter-gather peers on the wall clock. It reads no
// clock of its own: every call passes the current time, so a simulation
// drives it from sim seconds (time.Unix(t, 0)) and replays exactly.
//
// After failThreshold consecutive failures the breaker opens for the
// cooldown. Once the cooldown elapses, Allow admits exactly one
// half-open probe at a time; the probe's Success closes the breaker and
// its Failure re-arms the cooldown.
type Breaker struct {
	failThreshold int
	cooldown      time.Duration

	mu          sync.Mutex
	consecFails int
	open        bool
	probeAt     time.Time
	probing     bool
}

// NewBreaker builds a closed breaker that opens after failThreshold
// consecutive failures and stays open for cooldown.
func NewBreaker(failThreshold int, cooldown time.Duration) *Breaker {
	return &Breaker{failThreshold: failThreshold, cooldown: cooldown}
}

// Allow reports whether a call may proceed at now. While open it returns
// false until the cooldown elapses, then admits one half-open probe at a
// time; the probe's Success or Failure decides the next state.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if now.Before(b.probeAt) || b.probing {
		return false
	}
	b.probing = true
	return true
}

// Success records a successful call and closes the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
	b.open = false
	b.probing = false
}

// Failure records a failed call at now, opening (or re-arming) the
// breaker once the threshold is reached.
func (b *Breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	b.probing = false
	if b.open || b.consecFails >= b.failThreshold {
		b.open = true
		b.probeAt = now.Add(b.cooldown)
	}
}

// State reports "closed", "open", or "half-open" (cooldown elapsed, the
// next call is the probe) at now.
func (b *Breaker) State(now time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case !b.open:
		return "closed"
	case !now.Before(b.probeAt):
		return "half-open"
	default:
		return "open"
	}
}
