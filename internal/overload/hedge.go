package overload

import "sync"

// HedgeBudget is a token bucket that bounds hedges to a fraction of
// primary calls, so hedging can never amplify an overload: each primary
// call accrues Rate tokens (capped at Burst), each hedge spends one.
type HedgeBudget struct {
	mu     sync.Mutex
	tokens float64
	rate   float64
	burst  float64
}

// NewHedgeBudget builds a budget allowing roughly rate hedges per primary
// call with a burst allowance. rate <= 0 disables hedging entirely;
// burst <= 0 defaults to 8. The bucket starts full.
func NewHedgeBudget(rate, burst float64) *HedgeBudget {
	if burst <= 0 {
		burst = 8
	}
	if rate < 0 {
		rate = 0
	}
	return &HedgeBudget{tokens: burst, rate: rate, burst: burst}
}

// NotePrimary accrues budget for one primary call.
func (h *HedgeBudget) NotePrimary() {
	h.mu.Lock()
	h.tokens += h.rate
	if h.tokens > h.burst {
		h.tokens = h.burst
	}
	h.mu.Unlock()
}

// Allow spends one token if available, reporting whether a hedge may be
// launched.
func (h *HedgeBudget) Allow() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rate <= 0 || h.tokens < 1 {
		return false
	}
	h.tokens--
	return true
}
