// Package cluster simulates datacenter-scale fleets event-drivenly and
// composes their power hierarchically — the paper's Eq. 5 (cluster power
// is the sum of per-machine predictions) pushed from 5-machine clusters
// to tens of thousands of machines.
//
// Two ideas carry the scale:
//
//   - Event-driven time. Machines schedule their next state change
//     (burst start, per-second step while active, burst end) on a shared
//     clock instead of being stepped in per-second lockstep, so a fleet
//     that is 90% idle costs ~10% of the lockstep work. The leaf
//     evaluator is the unchanged sim.Machine step.
//
//   - Hierarchical incremental composition. Machines aggregate into a
//     topology tree (machine → rack → row → datacenter); each level
//     stores its children's summed watts, and an event dirties only its
//     machine's path to the root. Re-reading the datacenter total after
//     an event recomputes O(path · fan-out) sums, not O(machines)
//     predictions — and, because clean subtree sums are reused unchanged
//     and dirty ones re-add the same children in the same order, the
//     incremental total is bit-identical to a full recompute (the
//     property test holds this exactly).
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// SpecVersion identifies the topology document schema.
const SpecVersion = "chaos-topology/v1"

// MaxDepth bounds the topology tree: datacenter → row → rack → machine.
const MaxDepth = 4

// MaxMachines bounds a single simulated fleet.
const MaxMachines = 1 << 20

// Spec is the JSON topology document. Exactly one of Grid (a uniform
// generator for large fleets) or Tree (an explicit hierarchy) describes
// the layout.
type Spec struct {
	Version string `json:"version"`
	Name    string `json:"name"`
	// Seed drives every derived stream: machine variability, burst
	// schedules, platform/profile assignment.
	Seed int64 `json:"seed"`
	Grid *Grid `json:"grid,omitempty"`
	Tree *Node `json:"tree,omitempty"`
}

// Grid generates Rows × RacksPerRow × MachinesPerRack machines with
// platforms and profiles drawn from weighted mixes.
type Grid struct {
	Rows            int        `json:"rows"`
	RacksPerRow     int        `json:"racks_per_row"`
	MachinesPerRack int        `json:"machines_per_rack"`
	Platforms       []Weighted `json:"platforms"`
	Profiles        []Weighted `json:"profiles"`
}

// Weighted is one entry of a weighted mix.
type Weighted struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// Node is one level of an explicit topology tree. Interior nodes carry
// children; the innermost nodes (racks) carry machines. A node never
// carries both.
type Node struct {
	Name     string        `json:"name"`
	Children []*Node       `json:"children,omitempty"`
	Machines []MachineSpec `json:"machines,omitempty"`
}

// MachineSpec places one machine in an explicit tree.
type MachineSpec struct {
	ID       string `json:"id"`
	Platform string `json:"platform"`
	// Profile defaults to "bursty" when empty.
	Profile string `json:"profile,omitempty"`
}

// ParseSpec decodes and validates a topology document. Unknown fields and
// trailing data are rejected so typos fail loudly instead of silently
// shrinking a fleet.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("cluster: parsing topology: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("cluster: trailing data after topology document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the document against the schema rules: version and
// name present, exactly one layout, platform/profile names known, tree
// depth ≤ MaxDepth, no duplicate or empty machine IDs, no empty racks.
func (s *Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("cluster: topology version %q, want %q", s.Version, SpecVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("cluster: topology needs a name")
	}
	if (s.Grid == nil) == (s.Tree == nil) {
		return fmt.Errorf("cluster: topology needs exactly one of grid or tree")
	}
	if s.Grid != nil {
		return s.Grid.validate()
	}
	seen := make(map[string]bool)
	n, err := s.Tree.validate(1, seen)
	if err != nil {
		return err
	}
	if n > MaxMachines {
		return fmt.Errorf("cluster: %d machines exceeds the %d limit", n, MaxMachines)
	}
	return nil
}

func (g *Grid) validate() error {
	if g.Rows < 1 || g.RacksPerRow < 1 || g.MachinesPerRack < 1 {
		return fmt.Errorf("cluster: grid dimensions %dx%dx%d must all be ≥ 1",
			g.Rows, g.RacksPerRow, g.MachinesPerRack)
	}
	// Bound each partial product before the next multiplication, so the
	// product of three ints cannot wrap past the limit.
	n := 1
	for _, d := range [...]int{g.Rows, g.RacksPerRow, g.MachinesPerRack} {
		if d > MaxMachines/n {
			return fmt.Errorf("cluster: grid %dx%dx%d exceeds the %d-machine limit",
				g.Rows, g.RacksPerRow, g.MachinesPerRack, MaxMachines)
		}
		n *= d
	}
	if err := validateMix("platforms", g.Platforms, validPlatform); err != nil {
		return err
	}
	return validateMix("profiles", g.Profiles, validProfile)
}

func validPlatform(name string) error {
	_, err := sim.Platform(name)
	return err
}

func validProfile(name string) error {
	_, err := workloads.FleetProfileByName(name)
	return err
}

func validateMix(what string, mix []Weighted, check func(string) error) error {
	if len(mix) == 0 {
		return fmt.Errorf("cluster: grid needs a non-empty %s mix", what)
	}
	for _, w := range mix {
		if err := check(w.Name); err != nil {
			return fmt.Errorf("cluster: %s mix: %w", what, err)
		}
		if !(w.Weight > 0) || w.Weight > 1e9 {
			return fmt.Errorf("cluster: %s mix entry %q has weight %v, want (0, 1e9]", what, w.Name, w.Weight)
		}
	}
	return nil
}

// validate walks the explicit tree. depth counts levels from the root
// (root = 1); machines under a node sit one level below it.
func (n *Node) validate(depth int, seen map[string]bool) (machines int, err error) {
	if n == nil {
		return 0, fmt.Errorf("cluster: null topology node")
	}
	if n.Name == "" {
		return 0, fmt.Errorf("cluster: topology node at depth %d needs a name", depth)
	}
	if len(n.Children) > 0 && len(n.Machines) > 0 {
		return 0, fmt.Errorf("cluster: node %q mixes child nodes and machines", n.Name)
	}
	if len(n.Children) == 0 && len(n.Machines) == 0 {
		return 0, fmt.Errorf("cluster: node %q is empty (a rack needs machines, an interior node needs children)", n.Name)
	}
	if len(n.Machines) > 0 && depth+1 > MaxDepth {
		return 0, fmt.Errorf("cluster: machines under %q sit at depth %d, deeper than %d (machine → rack → row → datacenter)",
			n.Name, depth+1, MaxDepth)
	}
	if len(n.Children) > 0 && depth+1 >= MaxDepth {
		// A child at MaxDepth could hold nothing legally: its machines
		// would exceed MaxDepth and empty nodes are rejected.
		return 0, fmt.Errorf("cluster: node %q nests deeper than %d levels", n.Name, MaxDepth)
	}
	for _, m := range n.Machines {
		if m.ID == "" {
			return 0, fmt.Errorf("cluster: machine in rack %q needs an id", n.Name)
		}
		if seen[m.ID] {
			return 0, fmt.Errorf("cluster: duplicate machine id %q", m.ID)
		}
		seen[m.ID] = true
		if err := validPlatform(m.Platform); err != nil {
			return 0, fmt.Errorf("cluster: machine %q: %w", m.ID, err)
		}
		if m.Profile != "" {
			if err := validProfile(m.Profile); err != nil {
				return 0, fmt.Errorf("cluster: machine %q: %w", m.ID, err)
			}
		}
	}
	machines = len(n.Machines)
	for _, c := range n.Children {
		cm, err := c.validate(depth+1, seen)
		if err != nil {
			return 0, err
		}
		machines += cm
	}
	return machines, nil
}

// MachineCount returns the number of machines the spec describes. The
// spec must already be valid.
func (s *Spec) MachineCount() int {
	if s.Grid != nil {
		return s.Grid.Rows * s.Grid.RacksPerRow * s.Grid.MachinesPerRack
	}
	return s.Tree.machineCount()
}

func (n *Node) machineCount() int {
	total := len(n.Machines)
	for _, c := range n.Children {
		total += c.machineCount()
	}
	return total
}

// expandTree renders a Grid spec as the explicit tree it generates, so
// both layouts build through one path. Machine platforms and profiles are
// drawn per machine from streams derived off (seed, machine id): stable
// under re-runs and independent of assignment order.
func (g *Grid) expandTree(name string, seed int64) *Node {
	root := &Node{Name: name}
	for r := 0; r < g.Rows; r++ {
		row := &Node{Name: fmt.Sprintf("row-%d", r)}
		for k := 0; k < g.RacksPerRow; k++ {
			rack := &Node{Name: fmt.Sprintf("row-%d/rack-%d", r, k)}
			for m := 0; m < g.MachinesPerRack; m++ {
				id := fmt.Sprintf("r%dk%dm%d", r, k, m)
				rng := mathx.NewSplitMix(mathx.DeriveSeed(seed, "assign:"+id))
				rack.Machines = append(rack.Machines, MachineSpec{
					ID:       id,
					Platform: pickWeighted(rng, g.Platforms),
					Profile:  pickWeighted(rng, g.Profiles),
				})
			}
			row.Children = append(row.Children, rack)
		}
		root.Children = append(root.Children, row)
	}
	return root
}

func pickWeighted(rng *mathx.SplitMix64, mix []Weighted) string {
	total := 0.0
	for _, w := range mix {
		total += w.Weight
	}
	x := rng.Float64() * total
	for _, w := range mix {
		x -= w.Weight
		if x < 0 {
			return w.Name
		}
	}
	return mix[len(mix)-1].Name
}
