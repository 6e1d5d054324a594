// Package faults is a deterministic fault-injection harness for the
// streaming path. The paper's own deployment setting — 1 Hz Perfmon
// collectors, occasionally-available WattsUp meters, five-machine clusters
// whose members reboot — is full of partial failures, and the cluster
// model (Eq. 5) sums per-machine predictions, so a single flaky collector
// must not take down the cluster-wide estimate. This package makes every
// such failure mode reproducible: a Scenario describes what goes wrong
// and when, an Injector replays it from a seed, and a Collector wraps the
// per-machine sampling path with bounded retry, a per-sample timeout, and
// a circuit breaker, so degraded-mode estimation can be tested second by
// second.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// MachineFaults are the per-second stochastic fault rates applied to one
// machine's sample collection. A machine listed in Scenario.Machines uses
// its entry verbatim; it does not merge with Scenario.Defaults.
type MachineFaults struct {
	// DropProb is the probability that one collection attempt returns
	// nothing (flaky collector RPC, lost Perfmon poll).
	DropProb float64 `json:"drop_prob,omitempty"`
	// CorruptProb is the per-sample probability that one to three
	// counters in a successfully collected row are replaced with NaN/±Inf.
	CorruptProb float64 `json:"corrupt_prob,omitempty"`
	// StuckProb is the per-sample probability that the counter source
	// wedges: the row freezes at its current values for StuckSeconds.
	StuckProb float64 `json:"stuck_prob,omitempty"`
	// StuckSeconds is how long a wedged counter source stays frozen.
	// Required (> 0) when StuckProb > 0.
	StuckSeconds int `json:"stuck_seconds,omitempty"`
	// LatencyProb is the per-attempt probability of a latency spike of
	// LatencyMS milliseconds (slow WMI query, scheduler stall). Spikes
	// count against the collector's per-sample timeout budget.
	LatencyProb float64 `json:"latency_prob,omitempty"`
	// LatencyMS is the size of one latency spike in milliseconds.
	LatencyMS float64 `json:"latency_ms,omitempty"`
}

// Window is a half-open interval of simulation seconds [StartS, EndS).
type Window struct {
	StartS int `json:"start_s"`
	EndS   int `json:"end_s"`
}

// contains reports whether second t falls inside the window.
func (w Window) contains(t int) bool { return t >= w.StartS && t < w.EndS }

// Crash takes one machine offline: every collection attempt in
// [AtS, AtS+DowntimeS) fails, modeling a reboot or network partition.
type Crash struct {
	Machine   string `json:"machine"`
	AtS       int    `json:"at_s"`
	DowntimeS int    `json:"downtime_s"`
}

// window returns the crash's downtime as a Window.
func (c Crash) window() Window { return Window{StartS: c.AtS, EndS: c.AtS + c.DowntimeS} }

// PeerFaults are node-level faults applied to one serving peer in a
// distributed deployment: whole-process outages and network-level
// degradation, as seen from the node doing the scatter-gather.
type PeerFaults struct {
	// Crashes are windows when the peer process is down entirely (killed,
	// rebooting): every call to it fails fast.
	Crashes []Window `json:"crashes,omitempty"`
	// Partitions are windows when the peer is up but unreachable from
	// this node (network partition): calls hang until deadline.
	Partitions []Window `json:"partitions,omitempty"`
	// SlowProb is the per-call probability of an injected latency of
	// SlowMS milliseconds (overloaded peer, congested link).
	SlowProb float64 `json:"slow_prob,omitempty"`
	// SlowMS is the size of one injected peer latency in milliseconds.
	// Required (> 0) when SlowProb > 0.
	SlowMS float64 `json:"slow_ms,omitempty"`
}

// LoadSurge is one offered-load window: inside [start_s, end_s) the load
// generator multiplies its configured arrival rate by Multiplier, making
// overload storms seedable and deterministic. Multipliers below 1 model
// traffic dips the same way.
type LoadSurge struct {
	StartS int `json:"start_s"`
	EndS   int `json:"end_s"`
	// Multiplier scales the arrival rate inside the window. Must be
	// positive and finite.
	Multiplier float64 `json:"multiplier"`
}

// window returns the surge interval as a Window.
func (l LoadSurge) window() Window { return Window{StartS: l.StartS, EndS: l.EndS} }

// Scenario is a reproducible fault-injection plan for one streaming run.
// Scenarios are plain JSON (see examples/faults-crashy.json); unknown
// fields are rejected so schema typos fail loudly.
type Scenario struct {
	// Name identifies the scenario in logs and events.
	Name string `json:"name,omitempty"`
	// Defaults apply to every machine without an explicit Machines entry.
	Defaults MachineFaults `json:"defaults,omitempty"`
	// Machines overrides Defaults wholesale for the named machine IDs.
	Machines map[string]MachineFaults `json:"machines,omitempty"`
	// MeterDropouts are windows when the power meter is unavailable
	// (the paper's WattsUp meters were only occasionally attached);
	// residual monitoring and retraining must pause inside them.
	MeterDropouts []Window `json:"meter_dropouts,omitempty"`
	// Crashes are machine outages. Windows for the same machine must not
	// overlap.
	Crashes []Crash `json:"crashes,omitempty"`
	// Peers are node-level faults keyed by peer ID, injected into the
	// scatter-gather path of a distributed deployment.
	Peers map[string]PeerFaults `json:"peers,omitempty"`
	// Load are offered-load surge windows applied by the load generator.
	// Windows must not overlap.
	Load []LoadSurge `json:"load,omitempty"`
}

// validateFaults checks one machine's fault rates.
func validateFaults(who string, mf MachineFaults) error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"drop_prob", mf.DropProb},
		{"corrupt_prob", mf.CorruptProb},
		{"stuck_prob", mf.StuckProb},
		{"latency_prob", mf.LatencyProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s: %s %g outside [0, 1]", who, p.name, p.v)
		}
	}
	if mf.StuckSeconds < 0 {
		return fmt.Errorf("faults: %s: negative stuck_seconds %d", who, mf.StuckSeconds)
	}
	if mf.StuckProb > 0 && mf.StuckSeconds == 0 {
		return fmt.Errorf("faults: %s: stuck_prob %g needs stuck_seconds > 0", who, mf.StuckProb)
	}
	if mf.LatencyMS < 0 {
		return fmt.Errorf("faults: %s: negative latency_ms %g", who, mf.LatencyMS)
	}
	if mf.LatencyProb > 0 && mf.LatencyMS == 0 {
		return fmt.Errorf("faults: %s: latency_prob %g needs latency_ms > 0", who, mf.LatencyProb)
	}
	return nil
}

// checkWindows rejects malformed or overlapping windows (sorted copy, so
// the scenario order does not matter).
func checkWindows(what string, ws []Window) error {
	sorted := append([]Window(nil), ws...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StartS < sorted[j].StartS })
	for i, w := range sorted {
		if w.StartS < 0 {
			return fmt.Errorf("faults: %s window starts at negative second %d", what, w.StartS)
		}
		if w.EndS <= w.StartS {
			return fmt.Errorf("faults: %s window [%d, %d) is empty or inverted", what, w.StartS, w.EndS)
		}
		if i > 0 && sorted[i-1].EndS > w.StartS {
			return fmt.Errorf("faults: %s windows [%d, %d) and [%d, %d) overlap",
				what, sorted[i-1].StartS, sorted[i-1].EndS, w.StartS, w.EndS)
		}
	}
	return nil
}

// Validate checks the scenario for impossible probabilities, malformed
// windows, and overlapping outages.
func (s *Scenario) Validate() error {
	if err := validateFaults("defaults", s.Defaults); err != nil {
		return err
	}
	for id, mf := range s.Machines {
		if id == "" {
			return fmt.Errorf("faults: machines entry with empty machine ID")
		}
		if err := validateFaults("machine "+id, mf); err != nil {
			return err
		}
	}
	if err := checkWindows("meter_dropouts", s.MeterDropouts); err != nil {
		return err
	}
	byMachine := map[string][]Window{}
	for _, c := range s.Crashes {
		if c.Machine == "" {
			return fmt.Errorf("faults: crash with empty machine ID")
		}
		if c.AtS < 0 {
			return fmt.Errorf("faults: crash of %s at negative second %d", c.Machine, c.AtS)
		}
		if c.DowntimeS <= 0 {
			return fmt.Errorf("faults: crash of %s has non-positive downtime %d", c.Machine, c.DowntimeS)
		}
		byMachine[c.Machine] = append(byMachine[c.Machine], c.window())
	}
	for id, ws := range byMachine {
		if err := checkWindows("crashes("+id+")", ws); err != nil {
			return err
		}
	}
	for id, pf := range s.Peers {
		if id == "" {
			return fmt.Errorf("faults: peers entry with empty peer ID")
		}
		if pf.SlowProb < 0 || pf.SlowProb > 1 {
			return fmt.Errorf("faults: peer %s: slow_prob %g outside [0, 1]", id, pf.SlowProb)
		}
		if pf.SlowMS < 0 {
			return fmt.Errorf("faults: peer %s: negative slow_ms %g", id, pf.SlowMS)
		}
		if pf.SlowProb > 0 && pf.SlowMS == 0 {
			return fmt.Errorf("faults: peer %s: slow_prob %g needs slow_ms > 0", id, pf.SlowProb)
		}
		if err := checkWindows("peer("+id+") crashes", pf.Crashes); err != nil {
			return err
		}
		if err := checkWindows("peer("+id+") partitions", pf.Partitions); err != nil {
			return err
		}
	}
	loadWindows := make([]Window, 0, len(s.Load))
	for _, l := range s.Load {
		// NaN fails every comparison, so check the valid range directly.
		if !(l.Multiplier > 0) || l.Multiplier > 1e6 {
			return fmt.Errorf("faults: load window [%d, %d): multiplier %g outside (0, 1e6]",
				l.StartS, l.EndS, l.Multiplier)
		}
		loadWindows = append(loadWindows, l.window())
	}
	if err := checkWindows("load", loadWindows); err != nil {
		return err
	}
	return nil
}

// ParseScenario decodes and validates a scenario from JSON. Unknown
// fields and trailing data are errors.
func ParseScenario(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("faults: parse scenario: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("faults: trailing data after scenario document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadScenario reads and validates a scenario file.
func LoadScenario(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	defer f.Close()
	s, err := ParseScenario(f)
	if err != nil {
		return nil, fmt.Errorf("faults: scenario %s: %w", path, err)
	}
	return s, nil
}
