// chaos-dc simulates a datacenter-scale fleet event-drivenly and streams
// its hierarchically composed power series: per-rack, per-row, and
// whole-datacenter watts, each an incremental aggregate that recomputes
// only the subtrees events actually touched (Eq. 5 composability at 20k
// machines).
//
// The topology comes from a chaos-topology/v1 JSON document (see
// examples/dc-20k.json): either an explicit tree (datacenter → row →
// rack → machines) or a grid generator with weighted platform and
// workload-profile mixes. The same document and seed always replay the
// same fleet, burst for burst.
//
// With -feed, chaos-dc additionally samples a subset of machines at a
// fixed cadence, expands their OS counter signals into full counter
// vectors, and POSTs the snapshot to a running chaos-serve /
// chaos-dist /v1/estimate/cluster endpoint — closing the loop from
// simulated fleet to served estimates.
//
// With -capping, chaos-dc closes the outer loop: it bootstraps Eq. 4
// switching models for the fleet's platforms, admits them into a model
// registry, and runs the internal/control model-predictive capping
// controller against the simulation under the given chaos-capping/v1
// policy. Budgeted levels stream cap/actual/headroom series alongside
// the power series, cap_violation / cap_recovered events are emitted as
// JSON lines, and the chaos_cap_{budget,actual,headroom}_watts gauges
// plus chaos_actuations_total counters are served on -listen.
//
// Usage:
//
//	chaos-dc -topology examples/dc-20k.json -duration 1h
//	chaos-dc -topology dc.json -interval 60 -levels rack -json
//	chaos-dc -topology dc.json -feed http://localhost:8080 -feed-machines 50
//	chaos-dc -topology examples/dc-20k.json -capping examples/capping-row0.json -listen :9090
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/control"
	"repro/internal/counters"
	"repro/internal/faults"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/serve"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chaos-dc:", err)
		os.Exit(1)
	}
}

type options struct {
	topology     string
	duration     time.Duration
	interval     int64
	levels       string
	jsonOut      bool
	feed         string
	feedMachines int
	feedInterval int64
	seed         int64
	capping      string
	listen       string
}

// tick is one streamed aggregate observation.
type tick struct {
	T     int64   `json:"t"`
	Level string  `json:"level"` // "datacenter", "row", "rack"
	Name  string  `json:"name"`
	Watts float64 `json:"watts"`
}

// summary is the final line of a run.
type summary struct {
	Topology       string  `json:"topology"`
	Machines       int     `json:"machines"`
	SimSeconds     int64   `json:"sim_seconds"`
	Events         int64   `json:"events"`
	Steps          int64   `json:"steps"`
	EventsPerSec   float64 `json:"events_per_sec"`
	SimSecPerSec   float64 `json:"sim_seconds_per_sec"`
	ActiveEnd      int     `json:"active_machines_end"`
	DatacenterW    float64 `json:"datacenter_watts_end"`
	Digest         string  `json:"digest"`
	FedSnapshots   int     `json:"fed_snapshots,omitempty"`
	FeedClusterW   float64 `json:"feed_cluster_watts_last,omitempty"`
	FeedSimW       float64 `json:"feed_sim_watts_last,omitempty"`
	FeedRelErrLast float64 `json:"feed_rel_err_last,omitempty"`

	CapPolicy     string `json:"cap_policy,omitempty"`
	CapTicks      int64  `json:"cap_ticks,omitempty"`
	CapDecisions  int64  `json:"cap_decisions,omitempty"`
	CapFreqActs   int64  `json:"cap_freq_actuations,omitempty"`
	CapMigrations int64  `json:"cap_migrations,omitempty"`
	// CapCompliance is the fraction of budgeted (level, second) samples
	// whose hidden ground-truth power stayed within budget × 1.015 (the
	// meter-error allowance), outside a two-interval settling window.
	CapCompliance float64 `json:"cap_compliance,omitempty"`
	ServedCPU     float64 `json:"served_cpu_core_s,omitempty"`
}

func realMain(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("chaos-dc", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.topology, "topology", "", "chaos-topology/v1 JSON document (required)")
	fs.DurationVar(&o.duration, "duration", time.Hour, "simulated duration")
	fs.Int64Var(&o.interval, "interval", 300, "reporting interval in simulated seconds")
	fs.StringVar(&o.levels, "levels", "datacenter,row", "comma-separated levels to stream: datacenter,row,rack")
	fs.BoolVar(&o.jsonOut, "json", false, "emit JSON lines instead of text")
	fs.StringVar(&o.feed, "feed", "", "base URL of a /v1/estimate/cluster endpoint to feed sampled snapshots")
	fs.IntVar(&o.feedMachines, "feed-machines", 20, "machines per fed snapshot (evenly spread over the fleet)")
	fs.Int64Var(&o.feedInterval, "feed-interval", 600, "simulated seconds between fed snapshots")
	fs.Int64Var(&o.seed, "seed", 0, "override the topology document's seed (0 keeps it)")
	fs.StringVar(&o.capping, "capping", "", "chaos-capping/v1 policy JSON enabling the power-capping control loop")
	fs.StringVar(&o.listen, "listen", "", "serve /metrics, /healthz, and pprof on this address (e.g. :9090)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if o.topology == "" {
		return fmt.Errorf("-topology is required")
	}
	if o.interval < 1 || o.duration < time.Second {
		return fmt.Errorf("-interval and -duration must cover at least one simulated second")
	}

	data, err := os.ReadFile(o.topology)
	if err != nil {
		return err
	}
	spec, err := cluster.ParseSpec(data)
	if err != nil {
		return err
	}
	if o.seed != 0 {
		spec.Seed = o.seed
	}
	topo, err := cluster.Build(spec)
	if err != nil {
		return err
	}
	cs := cluster.NewSimulator(topo)

	want := map[string]bool{}
	for _, l := range strings.Split(o.levels, ",") {
		l = strings.TrimSpace(l)
		if l == "" {
			continue
		}
		if l != "datacenter" && l != "row" && l != "rack" {
			return fmt.Errorf("unknown level %q (want datacenter, row, or rack)", l)
		}
		want[l] = true
	}

	var feeder *feeder
	if o.feed != "" {
		feeder, err = newFeeder(cs, o)
		if err != nil {
			return err
		}
	}

	var capr *capper
	if o.capping != "" {
		capr, err = newCapper(cs, topo, o, out)
		if err != nil {
			return err
		}
	}

	if o.listen != "" {
		srv, err := obs.Serve(o.listen, obs.Default())
		if err != nil {
			return err
		}
		defer srv.Close()
	}

	end := int64(o.duration / time.Second)
	start := time.Now()
	var fed summary
	for now := int64(0); now < end; {
		next := now + o.interval
		if next > end {
			next = end
		}
		if feeder != nil {
			// Feed snapshots on their own cadence inside the interval.
			for ft := feeder.next; ft <= next; ft += o.feedInterval {
				cs.RunUntil(ft)
				if err := feeder.snapshot(&fed); err != nil {
					return fmt.Errorf("feeding %s at t=%d: %w", o.feed, ft, err)
				}
				feeder.next = ft + o.feedInterval
			}
		}
		if capr != nil {
			// Advance second by second so cap compliance is scored against
			// ground truth at every simulated second, not just interval
			// boundaries.
			for ts := now + 1; ts <= next; ts++ {
				cs.RunUntil(ts)
				capr.score(ts)
			}
		} else {
			cs.RunUntil(next)
		}
		now = next
		emit(out, o.jsonOut, now, topo, want)
		if capr != nil {
			capr.emit(out, o.jsonOut, now)
		}
	}
	wall := time.Since(start).Seconds()

	s := summary{
		Topology:     spec.Name,
		Machines:     len(topo.Machines),
		SimSeconds:   end,
		Events:       cs.Events(),
		Steps:        cs.Steps(),
		ActiveEnd:    cs.ActiveMachines(),
		DatacenterW:  topo.Root.Watts(),
		Digest:       cs.Digest(),
		FedSnapshots: fed.FedSnapshots,
	}
	if wall > 0 {
		s.EventsPerSec = float64(cs.Events()) / wall
		s.SimSecPerSec = float64(end) / wall
	}
	if fed.FedSnapshots > 0 {
		s.FeedClusterW = fed.FeedClusterW
		s.FeedSimW = fed.FeedSimW
		s.FeedRelErrLast = fed.FeedRelErrLast
	}
	if capr != nil {
		s.CapPolicy = capr.pol.Name
		s.CapTicks, s.CapDecisions, s.CapFreqActs, s.CapMigrations = capr.ctl.Stats()
		s.CapCompliance = capr.compliance()
		s.ServedCPU = cs.ServedCPU()
	}
	if o.jsonOut {
		return json.NewEncoder(out).Encode(map[string]any{"summary": s})
	}
	fmt.Fprintf(out, "done: %s, %d machines, %ds simulated, %d events (%d steps), %.0f events/s, %.0f sim-s/s, %.0fW, digest %s\n",
		s.Topology, s.Machines, s.SimSeconds, s.Events, s.Steps, s.EventsPerSec, s.SimSecPerSec, s.DatacenterW, s.Digest[:16])
	if fed.FedSnapshots > 0 {
		fmt.Fprintf(out, "fed %d snapshots: served %.0fW vs simulated %.0fW on sampled machines (rel err %.3f)\n",
			fed.FedSnapshots, s.FeedClusterW, s.FeedSimW, s.FeedRelErrLast)
	}
	if capr != nil {
		fmt.Fprintf(out, "capping %s: compliance %.4f over %d budget(s), %d ticks, %d decisions, %d freq caps, %d migrations\n",
			s.CapPolicy, s.CapCompliance, len(capr.targets), s.CapTicks, s.CapDecisions, s.CapFreqActs, s.CapMigrations)
	}
	return nil
}

func emit(out io.Writer, jsonOut bool, now int64, topo *cluster.Topology, want map[string]bool) {
	for _, l := range topo.Levels {
		name := levelKind(l)
		if !want[name] {
			continue
		}
		t := tick{T: now, Level: name, Name: l.Name, Watts: l.Watts()}
		if jsonOut {
			b, _ := json.Marshal(t)
			fmt.Fprintln(out, string(b))
		} else {
			fmt.Fprintf(out, "t=%-7d %-10s %-18s %10.1f W\n", t.T, t.Level, t.Name, t.Watts)
		}
	}
}

// levelKind names a level for streaming filters: the root is the
// datacenter, any level holding machines is a rack, everything between
// is a row — which also does the right thing for trees shallower than
// the full four levels.
func levelKind(l *cluster.Level) string {
	if l.Depth == 1 {
		return "datacenter"
	}
	if len(l.Machines) > 0 {
		return "rack"
	}
	return "row"
}

// capper wires the model-predictive capping controller into the driver:
// bootstrapped Eq. 4 switching models for every platform in the fleet,
// a dedicated model registry, the internal/control loop, and per-second
// ground-truth compliance scoring (the verification side the controller
// itself never sees).
type capper struct {
	ctl     *control.Controller
	pol     *control.Policy
	targets []capTarget
	settle  int64
}

// capTarget tracks one budgeted level's compliance.
type capTarget struct {
	name                string
	level               *cluster.Level
	budget              float64
	samples, violations int64
}

// capTick is one streamed cap observation for a budgeted level.
type capTick struct {
	T             int64   `json:"t"`
	Level         string  `json:"level"` // always "cap"
	Name          string  `json:"name"`
	BudgetWatts   float64 `json:"budget_watts"`
	ActualWatts   float64 `json:"actual_watts"` // metered aggregate (what the controller sees)
	HeadroomWatts float64 `json:"headroom_watts"`
}

func newCapper(cs *cluster.ClusterSimulator, topo *cluster.Topology, o options, out io.Writer) (*capper, error) {
	pdata, err := os.ReadFile(o.capping)
	if err != nil {
		return nil, err
	}
	pol, err := control.ParsePolicy(pdata)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var platforms []string
	for _, mn := range topo.Machines {
		if p := mn.Machine.Spec.Name; !seen[p] {
			seen[p] = true
			platforms = append(platforms, p)
		}
	}
	sort.Strings(platforms)
	cm, err := control.Bootstrap(platforms, topo.Seed)
	if err != nil {
		return nil, err
	}
	reg := registry.New()
	if err := reg.Add("boot-1", cm, registry.Meta{Description: "chaos-dc bootstrap switching model"}); err != nil {
		return nil, err
	}
	// cap_violation / cap_recovered events stream as JSON lines among the
	// series in either output mode.
	ctl, err := control.New(cs, control.Config{Policy: pol, Registry: reg, Events: obs.NewEventSink(out)})
	if err != nil {
		return nil, err
	}
	cp := &capper{ctl: ctl, pol: pol, settle: 2 * pol.IntervalS}
	for _, b := range pol.Budgets {
		l, ok := topo.FindLevel(b.Level)
		if !ok { // control.New already resolved these; belt and braces
			return nil, fmt.Errorf("budget level %q not in topology", b.Level)
		}
		cp.targets = append(cp.targets, capTarget{name: b.Level, level: l, budget: b.Watts})
	}
	ctl.Start()
	return cp, nil
}

// score samples ground truth against every budget at simulated second
// ts, outside a two-interval settling window.
func (cp *capper) score(ts int64) {
	if ts <= cp.settle {
		return
	}
	for i := range cp.targets {
		t := &cp.targets[i]
		t.samples++
		if t.level.GroundTruthWatts() > t.budget*1.015 {
			t.violations++
		}
	}
}

// compliance returns the fraction of scored (budget, second) samples
// that stayed within budget × 1.015.
func (cp *capper) compliance() float64 {
	var samples, viols int64
	for i := range cp.targets {
		samples += cp.targets[i].samples
		viols += cp.targets[i].violations
	}
	if samples == 0 {
		return 1
	}
	return 1 - float64(viols)/float64(samples)
}

// emit streams one cap/actual/headroom observation per budgeted level.
func (cp *capper) emit(out io.Writer, jsonOut bool, now int64) {
	for i := range cp.targets {
		t := &cp.targets[i]
		actual := t.level.Watts()
		ct := capTick{
			T: now, Level: "cap", Name: t.name,
			BudgetWatts: t.budget, ActualWatts: actual, HeadroomWatts: t.budget - actual,
		}
		if jsonOut {
			b, _ := json.Marshal(ct)
			fmt.Fprintln(out, string(b))
		} else {
			fmt.Fprintf(out, "t=%-7d %-10s %-18s budget %9.1f W actual %9.1f W headroom %8.1f W\n",
				ct.T, ct.Level, ct.Name, ct.BudgetWatts, ct.ActualWatts, ct.HeadroomWatts)
		}
	}
}

// feeder POSTs sampled machine snapshots to a /v1/estimate/cluster
// endpoint. Each sampled machine gets its own counter Expander (the
// expander is stateful), seeded off the topology seed and machine id.
type feeder struct {
	cs        *cluster.ClusterSimulator
	url       string
	client    *http.Client
	indices   []int
	expanders []*counters.Expander
	next      int64
}

func newFeeder(cs *cluster.ClusterSimulator, o options) (*feeder, error) {
	topo := cs.Topology()
	n := o.feedMachines
	if n < 1 {
		return nil, fmt.Errorf("-feed-machines must be ≥ 1")
	}
	if n > len(topo.Machines) {
		n = len(topo.Machines)
	}
	if o.feedInterval < 1 {
		return nil, fmt.Errorf("-feed-interval must be ≥ 1")
	}
	f := &feeder{
		cs:     cs,
		url:    strings.TrimRight(o.feed, "/") + "/v1/estimate/cluster",
		client: &http.Client{Timeout: 30 * time.Second},
		next:   o.feedInterval,
	}
	reg := counters.StandardRegistry()
	stride := len(topo.Machines) / n
	for i := 0; i < n; i++ {
		idx := i * stride
		if err := cs.SetCapture(idx); err != nil {
			return nil, err
		}
		f.indices = append(f.indices, idx)
		f.expanders = append(f.expanders,
			counters.NewExpander(reg, mathx.DeriveSeed(topo.Seed, "exp:"+topo.Machines[idx].ID)))
	}
	return f, nil
}

func (f *feeder) snapshot(fed *summary) error {
	topo := f.cs.Topology()
	req := serve.EstimateRequest{}
	var simWatts float64
	for i, idx := range f.indices {
		sig, watts, err := f.cs.SampleSignals(idx)
		if err != nil {
			return err
		}
		vec, err := f.expanders[i].Sample(sig)
		if err != nil {
			return fmt.Errorf("expanding machine %s: %w", topo.Machines[idx].ID, err)
		}
		w := watts
		simWatts += w
		req.Samples = append(req.Samples, serve.SampleJSON{
			MachineID:    topo.Machines[idx].ID,
			Platform:     topo.Machines[idx].Machine.Spec.Name,
			Counters:     vec,
			MeteredWatts: &w,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	cr, status, retryAfter, err := f.post(body)
	if err != nil {
		return err
	}
	if status == http.StatusTooManyRequests {
		// The server is shedding load and told us when to come back
		// (Retry-After, in seconds). One bounded, jittered retry instead
		// of dropping the snapshot on the floor.
		base := 50.0 // ms floor when the hint is missing or zero
		if s, aerr := strconv.Atoi(strings.TrimSpace(retryAfter)); aerr == nil && s > 0 {
			base = float64(s) * 1000
		}
		if base > 5000 {
			base = 5000
		}
		rp := faults.RetryPolicy{MaxAttempts: 2, BackoffMS: base, Jitter: 0.25}
		time.Sleep(time.Duration(rp.BackoffFor(f.cs.Topology().Seed, "feed", 1) * float64(time.Millisecond)))
		cr, status, _, err = f.post(body)
		if err != nil {
			return err
		}
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, cr.Error)
	}
	fed.FedSnapshots++
	fed.FeedClusterW = cr.ClusterWatts
	fed.FeedSimW = simWatts
	if simWatts > 0 {
		rel := (cr.ClusterWatts - simWatts) / simWatts
		if rel < 0 {
			rel = -rel
		}
		fed.FeedRelErrLast = rel
	}
	return nil
}

// clusterResp is the subset of the /v1/estimate/cluster response the
// feeder reads.
type clusterResp struct {
	Status       int     `json:"status"`
	ClusterWatts float64 `json:"cluster_watts"`
	Error        string  `json:"error"`
}

// post performs one POST of the snapshot and decodes the JSON body
// whatever the status, returning the Retry-After hint alongside.
func (f *feeder) post(body []byte) (clusterResp, int, string, error) {
	var cr clusterResp
	resp, err := f.client.Post(f.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return cr, 0, "", err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return cr, resp.StatusCode, "", fmt.Errorf("decoding response: %w", err)
	}
	return cr, resp.StatusCode, resp.Header.Get("Retry-After"), nil
}
