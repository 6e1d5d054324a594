package faults

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/counters"
	"repro/internal/mathx"
	"repro/internal/telemetry"
)

// Clock is the simulation-time source the streaming loop, the injector,
// and the resilient collectors share, so every injected failure is
// addressed by the same second index everywhere.
type Clock struct{ t int }

// NewClock starts a clock at second 0.
func NewClock() *Clock { return &Clock{} }

// Now returns the current second without advancing.
func (c *Clock) Now() int { return c.t }

// Tick returns the current second and advances to the next.
func (c *Clock) Tick() int {
	t := c.t
	c.t++
	return t
}

// RetryPolicy bounds the per-second collection pipeline: how many
// attempts, how fast backoff grows between them, and the total latency
// budget — a sample that cannot be fetched inside TimeoutMS is lost, the
// way a 1 Hz poll that overruns its tick is lost.
type RetryPolicy struct {
	MaxAttempts   int     // attempts per second (>= 1)
	BackoffMS     float64 // backoff before retry k is BackoffMS * 2^(k-1)
	TimeoutMS     float64 // per-sample latency budget inside the 1 Hz tick
	AttemptCostMS float64 // nominal cost of one clean attempt
	// Jitter widens each backoff by a uniform factor in [1, 1+Jitter),
	// drawn deterministically per (machine, attempt). Without it a shared
	// outage synchronizes every machine's retry schedule and the fleet
	// hammers the recovered dependency in lockstep.
	Jitter float64
}

// DefaultRetry is the policy chaos-live uses: three attempts with 10 ms
// doubling backoff (half-width decorrelation jitter) inside a 250 ms
// budget.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BackoffMS: 10, TimeoutMS: 250, AttemptCostMS: 2, Jitter: 0.5}
}

// BackoffFor returns the backoff in milliseconds charged before retry
// attempt k (1-based) for machine. The exponential base is scaled by a
// jitter factor drawn from (seed, machine, attempt) the same way the
// injector draws its decisions, so the schedule is fully reproducible
// from the seed yet decorrelated across machines — retries spread out
// instead of storming together.
func (p RetryPolicy) BackoffFor(seed int64, machine string, attempt int) float64 {
	base := p.BackoffMS * math.Pow(2, float64(attempt-1))
	if p.Jitter <= 0 {
		return base
	}
	r := mathx.NewSplitMix(decisionSeed(seed, "retry", machine, attempt))
	return base * (1 + p.Jitter*r.Float64())
}

// BreakerConfig is the circuit breaker guarding one machine's collector:
// after FailThreshold consecutive failed seconds the machine is
// quarantined (no attempts at all) for CooldownSeconds, then a single
// half-open probe decides between closing and another cooldown.
type BreakerConfig struct {
	FailThreshold   int
	CooldownSeconds int
}

// DefaultBreaker quarantines after 3 consecutive failed seconds for 15 s.
func DefaultBreaker() BreakerConfig {
	return BreakerConfig{FailThreshold: 3, CooldownSeconds: 15}
}

// Result describes one second of fault-aware collection for one machine.
type Result struct {
	Row         []float64 // the collected (possibly transformed) row; nil unless OK
	OK          bool
	Down        bool // machine inside a crash window
	Quarantined bool // breaker open: no attempt was made
	TimedOut    bool // latency budget exhausted
	Attempts    int
	LatencyMS   float64 // simulated latency spent this second
	Stuck       bool    // row frozen at last values
	Corrupted   int     // counters replaced with NaN/±Inf
}

// Collector wraps one machine's sampling path with fault injection,
// bounded retry-with-backoff, a per-sample timeout, and a circuit
// breaker driven in sim seconds. It is safe for concurrent use, though a
// machine's seconds must be collected in order for stuck-counter faults
// to replay exactly.
type Collector struct {
	machine string
	inj     *Injector
	retry   RetryPolicy
	brk     *Breaker

	mu sync.Mutex // serializes Collect: each second settles the breaker before the next
}

// simTime places sim second t on the breaker's clock.
func simTime(t int) time.Time { return time.Unix(int64(t), 0) }

// NewCollector builds a resilient collector for one machine. Zero-valued
// policy fields take the defaults.
func NewCollector(machine string, inj *Injector, retry RetryPolicy, brk BreakerConfig) (*Collector, error) {
	if machine == "" {
		return nil, fmt.Errorf("faults: collector needs a machine ID")
	}
	if inj == nil {
		return nil, fmt.Errorf("faults: collector needs an injector")
	}
	if retry.MaxAttempts <= 0 {
		retry.MaxAttempts = DefaultRetry().MaxAttempts
	}
	if retry.TimeoutMS <= 0 {
		retry.TimeoutMS = DefaultRetry().TimeoutMS
	}
	if retry.BackoffMS < 0 || retry.AttemptCostMS < 0 || retry.Jitter < 0 {
		return nil, fmt.Errorf("faults: negative retry costs %+v", retry)
	}
	if brk.FailThreshold <= 0 {
		brk.FailThreshold = DefaultBreaker().FailThreshold
	}
	if brk.CooldownSeconds <= 0 {
		brk.CooldownSeconds = DefaultBreaker().CooldownSeconds
	}
	cooldown := time.Duration(brk.CooldownSeconds) * time.Second
	return &Collector{machine: machine, inj: inj, retry: retry, brk: NewBreaker(brk.FailThreshold, cooldown)}, nil
}

// State reports the breaker state at second t: "closed", "open", or
// "half-open".
func (c *Collector) State(t int) string { return c.brk.State(simTime(t)) }

// Collect runs one second of fault-aware collection: fetch pulls the real
// row (e.g. telemetry.Collector.Sample) and is only called when the
// injector lets an attempt through. A fetch error is a real error and
// aborts; injected failures come back as a !OK Result instead.
func (c *Collector) Collect(t int, fetch func() ([]float64, error)) (Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := simTime(t)
	var res Result
	maxAttempts := c.retry.MaxAttempts
	switch c.brk.State(now) {
	case "open":
		res.Quarantined = true
		samplesDropped.Inc()
		return res, nil
	case "half-open":
		maxAttempts = 1 // one probe decides
	}
	if c.inj.Down(c.machine, t) {
		res.Down = true
		injected("crash")
		c.brk.Failure(now)
		samplesDropped.Inc()
		return res, nil
	}
	for k := 0; k < maxAttempts; k++ {
		if k > 0 {
			res.LatencyMS += c.retry.BackoffFor(c.inj.seed, c.machine, k)
		}
		res.Attempts++
		ao := c.inj.Attempt(c.machine, t, k)
		res.LatencyMS += c.retry.AttemptCostMS + ao.LatencyMS
		if res.LatencyMS > c.retry.TimeoutMS {
			res.TimedOut = true
			break
		}
		if ao.Dropped {
			continue
		}
		row, err := fetch()
		if err != nil {
			return res, err
		}
		tr := c.inj.Transform(c.machine, t, row)
		res.Row, res.OK = row, true
		res.Stuck, res.Corrupted = tr.Stuck, tr.Corrupted
		c.brk.Success()
		return res, nil
	}
	c.brk.Failure(now)
	samplesDropped.Inc()
	return res, nil
}

// TelemetryFetch adapts a live telemetry.Collector into the fetch
// callback Collect expects, sampling the given base signals.
func TelemetryFetch(c *telemetry.Collector, sig counters.Signals) func() ([]float64, error) {
	return func() ([]float64, error) { return c.Sample(sig) }
}
