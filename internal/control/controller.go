package control

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/workloads"
)

// Config wires a Controller to its collaborators.
type Config struct {
	// Policy is the capping policy to enforce. Required.
	Policy *Policy
	// Registry supplies the admitted models the controller predicts with.
	// Required, with an active version covering every platform under a
	// budget.
	Registry *registry.Registry
	// Faults optionally injects meter dropout: while the meter is down
	// the controller senses through model predictions and never relaxes
	// caps (safe-hold).
	Faults *faults.Injector
	// Events optionally receives cap_violation / cap_recovered events.
	Events *obs.EventSink
}

// target is one resolved budget (its only copy): the level, its machines
// (deterministic topology order), and the violation latch.
type target struct {
	name     string
	level    *cluster.Level
	budget   float64
	machines []*cluster.MachineNode
	// floor is the level's summed idle watts: no amount of capping or
	// migration can push metered power below it. A budget under the
	// floor is infeasible and flagged rather than silently thrashed at.
	floor float64

	violating  bool
	infeasible bool // cap_infeasible emitted once per policy
	sensed     float64

	gBudget, gActual, gHeadroom *obs.Gauge
}

// Controller runs the sense→predict→decide→actuate loop. All scheduling
// goes through the simulator's actuation events, so a controlled run is
// exactly as deterministic (and digest-reproducible) as an uncontrolled
// one. A Controller belongs to the goroutine that drives its simulator.
type Controller struct {
	cs   *cluster.ClusterSimulator
	pol  *Policy
	reg  *registry.Registry
	inj  *faults.Injector
	sink *obs.EventSink

	targets   []*target
	platforms []string
	// spares are idle-profile machines outside every budget, ascending
	// index; each migration consumes one.
	spares []int

	cooldownUntil []int64 // per machine: frozen until this simulated second

	modelVersion string
	modelTicks   int64 // ticks since the active model last changed
	builders     map[string]*rowBuilder

	ticks     int64
	decisions int64 // what-if candidate evaluations
	freqActs  int64
	migActs   int64
	seq       uint32
	started   bool
}

var (
	actFreqTotal = obs.Default().Counter("chaos_actuations_total", obs.Labels{"kind": "freq_cap"})
	actMigTotal  = obs.Default().Counter("chaos_actuations_total", obs.Labels{"kind": "migration"})
)

// New builds a controller for the simulator: resolves every budget
// against the topology, verifies the active model covers every budgeted
// platform with control-derivable inputs, and inventories migration
// spares. It does not schedule anything until Start.
func New(cs *cluster.ClusterSimulator, cfg Config) (*Controller, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("control: nil policy")
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Registry == nil || cfg.Registry.Active() == nil {
		return nil, fmt.Errorf("control: registry with an active model required")
	}
	c := &Controller{
		cs:            cs,
		pol:           cfg.Policy,
		reg:           cfg.Registry,
		inj:           cfg.Faults,
		sink:          cfg.Events,
		cooldownUntil: make([]int64, len(cs.Topology().Machines)),
	}
	targets, err := c.resolveTargets(cfg.Policy)
	if err != nil {
		return nil, err
	}
	c.targets = targets
	c.platforms = platformsOf(targets)
	e := c.reg.Active()
	builders, err := buildersFor(e, c.platforms)
	if err != nil {
		return nil, err
	}
	c.builders = builders
	c.modelVersion = e.Version

	inTarget := map[int]bool{}
	for _, t := range targets {
		for _, mn := range t.machines {
			inTarget[mn.Index] = true
		}
	}
	for _, mn := range cs.Topology().Machines {
		if !inTarget[mn.Index] && mn.Profile.Kind == workloads.ProfileIdle {
			c.spares = append(c.spares, mn.Index)
		}
	}
	return c, nil
}

func (c *Controller) resolveTargets(p *Policy) ([]*target, error) {
	topo := c.cs.Topology()
	var out []*target
	for _, b := range p.Budgets {
		l, ok := topo.FindLevel(b.Level)
		if !ok {
			return nil, fmt.Errorf("control: budget level %q not in topology", b.Level)
		}
		lbl := obs.Labels{"level": b.Level}
		machines := machinesUnder(l)
		floor := 0.0
		for _, mn := range machines {
			floor += mn.Machine.IdleWatts()
		}
		out = append(out, &target{
			name:      b.Level,
			level:     l,
			budget:    b.Watts,
			machines:  machines,
			floor:     floor,
			gBudget:   obs.Default().Gauge("chaos_cap_budget_watts", lbl),
			gActual:   obs.Default().Gauge("chaos_cap_actual_watts", lbl),
			gHeadroom: obs.Default().Gauge("chaos_cap_headroom_watts", lbl),
		})
	}
	return out, nil
}

func machinesUnder(l *cluster.Level) []*cluster.MachineNode {
	if len(l.Machines) > 0 {
		out := make([]*cluster.MachineNode, len(l.Machines))
		copy(out, l.Machines)
		return out
	}
	var out []*cluster.MachineNode
	for _, ch := range l.Children {
		out = append(out, machinesUnder(ch)...)
	}
	return out
}

func platformsOf(ts []*target) []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range ts {
		for _, mn := range t.machines {
			if p := mn.Machine.Spec.Name; !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

func buildersFor(e *registry.Entry, platforms []string) (map[string]*rowBuilder, error) {
	out := map[string]*rowBuilder{}
	for _, p := range platforms {
		mm, ok := e.Model.ByPlatform[p]
		if !ok {
			return nil, fmt.Errorf("control: active model %q has no machine model for platform %q", e.Version, p)
		}
		rb, err := newRowBuilder(mm.Spec)
		if err != nil {
			return nil, fmt.Errorf("control: model %q platform %q: %w", e.Version, p, err)
		}
		out[p] = rb
	}
	return out, nil
}

// Start schedules the first control tick one interval from the current
// simulated second. Idempotent.
func (c *Controller) Start() {
	if c.started {
		return
	}
	c.started = true
	c.cs.ScheduleActuation(c.cs.Clock()+c.pol.IntervalS, c.tick)
}

// tick is one control cycle. It runs inside the simulator's event loop
// (as an actuation event), strictly before any machine step of the same
// second.
func (c *Controller) tick(now int64) {
	c.ticks++
	c.refreshModel()
	meterOK := c.inj == nil || c.inj.MeterAvailable(int(now))
	for _, t := range c.targets {
		sensed := c.sense(t, meterOK)
		t.sensed = sensed
		c.seq++
		c.cs.RecordControl(cluster.CtlTick, c.seq&0x0fff_ffff, sensed)
		t.gBudget.Set(t.budget)
		t.gActual.Set(sensed)
		t.gHeadroom.Set(t.budget - sensed)
		if t.budget < t.floor && !t.infeasible {
			// Shedding continues best-effort, but the operator must know
			// the budget cannot be met by any actuation this controller
			// has: the level's idle floor alone exceeds it.
			t.infeasible = true
			c.emit("cap_infeasible", map[string]any{
				"level": t.name, "t": now,
				"budget_watts": t.budget, "idle_floor_watts": t.floor,
			})
		}
		if sensed > t.budget {
			if !t.violating {
				t.violating = true
				c.emit("cap_violation", map[string]any{
					"level": t.name, "t": now,
					"budget_watts": t.budget, "sensed_watts": sensed,
				})
			}
		} else if t.violating && sensed <= t.budget-c.pol.HysteresisWatts {
			t.violating = false
			c.emit("cap_recovered", map[string]any{
				"level": t.name, "t": now,
				"budget_watts": t.budget, "sensed_watts": sensed,
			})
		}
		switch {
		case sensed > t.budget-c.pol.HysteresisWatts:
			c.shed(t, sensed-(t.budget-c.pol.HysteresisWatts), now, sensed > t.budget)
		case meterOK && sensed < t.budget-2*c.pol.HysteresisWatts:
			// Relaxing is only safe when the meter confirms the slack;
			// during dropout the controller holds caps where they are.
			c.relax(t, t.budget-2*c.pol.HysteresisWatts-sensed, now)
		}
	}
	c.cs.ScheduleActuation(now+c.pol.IntervalS, c.tick)
}

// refreshModel follows registry hot-swaps: when the active version
// changes, input builders are rebuilt; if the new model is unusable for
// control the old one is kept (and the staleness counter keeps growing).
func (c *Controller) refreshModel() {
	e := c.reg.Active()
	if e == nil || e.Version == c.modelVersion {
		c.modelTicks++
		return
	}
	builders, err := buildersFor(e, c.platforms)
	if err != nil {
		c.modelTicks++
		return
	}
	c.builders = builders
	c.modelVersion = e.Version
	c.modelTicks = 0
}

// sense returns the target's power as the controller is allowed to see
// it: the metered aggregate when the meter is up, otherwise the sum of
// admitted-model predictions from control-plane signals.
func (c *Controller) sense(t *target, meterOK bool) float64 {
	if meterOK {
		return t.level.Watts()
	}
	e := c.reg.Active()
	var sum float64
	for _, mn := range t.machines {
		sum += math.Max(0, c.predictNow(e, mn))
	}
	return sum
}

// predictNow evaluates the admitted model at the machine's current
// control-plane state.
func (c *Controller) predictNow(e *registry.Entry, mn *cluster.MachineNode) float64 {
	spec := mn.Machine.Spec
	mm := e.Model.ByPlatform[spec.Name]
	rb := c.builders[spec.Name]
	if mm == nil || rb == nil {
		return mn.Watts() // last recorded value: better than inventing zero
	}
	util, f := mn.Machine.LastCoreState()
	if f <= 0 { // parked in C1
		util, f = 0, spec.FreqStatesMHz[0]
	}
	return rb.predict(mm.Model, util, f)
}

type candidate struct {
	idx    int
	state  int     // target P-state cap for shed candidates
	saving float64 // predicted watts shed (or added, for relax)
	loss   float64 // predicted served-core loss
	score  float64
}

// shedConservatism discounts predicted savings when deciding how much
// more to shed: the model is evaluated at the instantaneous core state,
// but bursts arriving before the next tick erode whatever it promised.
// Without the discount the greedy stops exactly at the predicted budget
// line and the rack rides the boundary, violating on every burst.
const shedConservatism = 0.6

// shed brings the target back under budget: rank cap-down candidates —
// every reachable lower P-state of every capable machine — by predicted
// marginal watts per unit throughput lost, apply greedily (one cap write
// per machine per tick) until discounted predicted savings cover the
// excess or the per-tick actuation budget runs out, then fall back to
// migrating the hottest workloads onto spares outside every budget.
// While the target is in hard violation (sensed above budget, not merely
// inside the hysteresis band) the per-machine cooldown is bypassed:
// anti-thrash protection must not slow an emergency response.
func (c *Controller) shed(t *target, excess float64, now int64, hard bool) {
	e := c.reg.Active()
	var cands []candidate
	for _, mn := range t.machines {
		idx := mn.Index
		if (!hard && c.cooldownUntil[idx] > now) || !mn.Active() {
			continue
		}
		spec := mn.Machine.Spec
		capIdx := mn.Machine.FreqCap()
		if capIdx == 0 {
			continue // already at the floor; only migration can help
		}
		mm := e.Model.ByPlatform[spec.Name]
		rb := c.builders[spec.Name]
		if mm == nil || rb == nil {
			continue
		}
		util, f := mn.Machine.LastCoreState()
		if f <= 0 {
			continue
		}
		wNow := rb.predict(mm.Model, util, f)
		for k := capIdx - 1; k >= 0; k-- {
			c.decisions++
			wK, loss := whatIf(rb, mm.Model, spec, util, f, k)
			saving := wNow - wK
			if saving <= 0 {
				continue
			}
			cands = append(cands, candidate{idx: idx, state: k, saving: saving, loss: loss, score: saving / (loss + 0.01)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		if cands[i].idx != cands[j].idx {
			return cands[i].idx < cands[j].idx
		}
		return cands[i].state < cands[j].state
	})
	remaining := excess
	acted := 0
	actedThisTick := make(map[int]bool)
	for _, cd := range cands {
		if remaining <= 0 || acted >= c.pol.MaxActuationsPerTick {
			break
		}
		if actedThisTick[cd.idx] {
			continue // one cap write per machine per tick
		}
		if err := c.cs.SetMachineFreqCap(cd.idx, cd.state); err != nil {
			continue
		}
		actedThisTick[cd.idx] = true
		c.cooldownUntil[cd.idx] = now + int64(c.pol.CooldownTicks)*c.pol.IntervalS
		c.freqActs++
		actFreqTotal.Inc()
		remaining -= cd.saving * shedConservatism
		acted++
	}
	if remaining <= 0 || !c.pol.Migration.Enabled || len(c.spares) == 0 {
		return
	}
	// Caps alone cannot reach the budget (DVFS cannot cut below the idle
	// floor): move the hottest workloads out of the budgeted subtree.
	var hot []candidate
	for _, mn := range t.machines {
		idx := mn.Index
		if actedThisTick[idx] || (!hard && c.cooldownUntil[idx] > now) {
			continue
		}
		if mn.Profile.Kind == workloads.ProfileIdle {
			continue // nothing to move
		}
		c.decisions++
		wNow := math.Max(0, c.predictNow(e, mn))
		idleW := mn.Machine.IdleWatts()
		saving := wNow - idleW
		if saving <= 0 {
			// The model can under-predict a frequency-capped or parked
			// machine below its true idle floor, which would starve
			// migration exactly when caps have run out of room. In hard
			// violation keep such machines eligible with a token saving:
			// the per-tick migration limit still bounds the response, and
			// moving any non-idle profile off the rack frees real watts
			// the next time it bursts.
			if !hard {
				continue
			}
			saving = 1
		}
		hot = append(hot, candidate{idx: idx, saving: saving, score: saving})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].score != hot[j].score {
			return hot[i].score > hot[j].score
		}
		return hot[i].idx < hot[j].idx
	})
	migs := 0
	for _, cd := range hot {
		if remaining <= 0 || migs >= c.pol.Migration.MaxPerTick || len(c.spares) == 0 {
			break
		}
		dst := c.spares[0]
		if err := c.cs.MigrateProfile(cd.idx, dst); err != nil {
			continue
		}
		c.spares = c.spares[1:]
		c.cooldownUntil[cd.idx] = now + int64(c.pol.CooldownTicks)*c.pol.IntervalS
		c.migActs++
		actMigTotal.Inc()
		remaining -= cd.saving * shedConservatism
		migs++
	}
}

// relax steps caps back up when the meter confirms slack, cheapest
// predicted watts first, never exceeding the available margin.
func (c *Controller) relax(t *target, margin float64, now int64) {
	e := c.reg.Active()
	var cands []candidate
	for _, mn := range t.machines {
		idx := mn.Index
		if c.cooldownUntil[idx] > now {
			continue
		}
		spec := mn.Machine.Spec
		capIdx := mn.Machine.FreqCap()
		if capIdx >= len(spec.FreqStatesMHz)-1 {
			continue
		}
		mm := e.Model.ByPlatform[spec.Name]
		rb := c.builders[spec.Name]
		if mm == nil || rb == nil {
			continue
		}
		util, f := mn.Machine.LastCoreState()
		if f <= 0 {
			util, f = 0, spec.FreqStatesMHz[0]
		}
		c.decisions++
		wNow := rb.predict(mm.Model, util, f)
		wUp, _ := whatIf(rb, mm.Model, spec, util, f, capIdx+1)
		dW := math.Max(wUp-wNow, 0)
		// Saturated machines gain the most throughput per watt returned.
		cands = append(cands, candidate{idx: idx, saving: dW, score: util / (dW + 0.01)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].idx < cands[j].idx
	})
	spent := 0.0
	acted := 0
	for _, cd := range cands {
		if acted >= c.pol.MaxActuationsPerTick || spent+cd.saving > margin {
			break
		}
		mn := c.cs.Topology().Machines[cd.idx]
		if err := c.cs.SetMachineFreqCap(cd.idx, mn.Machine.FreqCap()+1); err != nil {
			continue
		}
		c.cooldownUntil[cd.idx] = now + int64(c.pol.CooldownTicks)*c.pol.IntervalS
		c.freqActs++
		actFreqTotal.Inc()
		spent += cd.saving
		acted++
	}
}

func (c *Controller) emit(event string, fields map[string]any) {
	if c.sink == nil {
		return
	}
	_ = c.sink.Emit(event, fields)
}

// TargetStatus is one budget's live state.
type TargetStatus struct {
	Level         string  `json:"level"`
	BudgetWatts   float64 `json:"budget_watts"`
	SensedWatts   float64 `json:"sensed_watts"`
	HeadroomWatts float64 `json:"headroom_watts"`
	// IdleFloorWatts is the level's summed idle power; a budget below it
	// is reported infeasible.
	IdleFloorWatts float64 `json:"idle_floor_watts"`
	Infeasible     bool    `json:"infeasible,omitempty"`
	Violating      bool    `json:"violating"`
	Machines       int     `json:"machines"`
}

// Status is the controller's live state: its policy, loop counters and
// every budget's headroom.
type Status struct {
	Policy       string         `json:"policy"`
	IntervalS    int64          `json:"interval_s"`
	ModelVersion string         `json:"model_version"`
	ModelTicks   int64          `json:"model_ticks_stale"`
	Ticks        int64          `json:"ticks"`
	Decisions    int64          `json:"decisions"`
	FreqCapActs  int64          `json:"freq_cap_actuations"`
	Migrations   int64          `json:"migrations"`
	SparesLeft   int            `json:"spares_left"`
	Targets      []TargetStatus `json:"targets"`
}

// StatusJSON returns the live Status.
func (c *Controller) StatusJSON() any {
	s := Status{
		Policy:       c.pol.Name,
		IntervalS:    c.pol.IntervalS,
		ModelVersion: c.modelVersion,
		ModelTicks:   c.modelTicks,
		Ticks:        c.ticks,
		Decisions:    c.decisions,
		FreqCapActs:  c.freqActs,
		Migrations:   c.migActs,
		SparesLeft:   len(c.spares),
	}
	for _, t := range c.targets {
		s.Targets = append(s.Targets, TargetStatus{
			Level:          t.name,
			BudgetWatts:    t.budget,
			SensedWatts:    t.sensed,
			HeadroomWatts:  t.budget - t.sensed,
			IdleFloorWatts: t.floor,
			Infeasible:     t.budget < t.floor,
			Violating:      t.violating,
			Machines:       len(t.machines),
		})
	}
	return s
}

// Stats returns cumulative loop counters (ticks, candidate evaluations,
// cap actuations, migrations).
func (c *Controller) Stats() (ticks, decisions, freqActs, migActs int64) {
	return c.ticks, c.decisions, c.freqActs, c.migActs
}
