package cluster

import (
	"fmt"

	"repro/internal/counters"
	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Topology is a built, simulatable hierarchy: the Level tree plus a flat
// view of every machine. Build it from a validated Spec.
type Topology struct {
	Name string
	Seed int64
	Root *Level
	// Levels lists every interior node (root first, then depth-first),
	// so drivers can stream per-level series without re-walking the tree.
	Levels []*Level
	// Machines indexes every leaf by its event index.
	Machines []*MachineNode
}

// Level is one interior node of the hierarchy (datacenter, row, or
// rack). It caches the summed watts of its subtree and a dirty bit; an
// event dirties only its machine's path to the root, and reads recompute
// only dirty nodes.
type Level struct {
	Name  string
	Depth int // root = 1

	parent   *Level
	Children []*Level
	Machines []*MachineNode // non-empty only on racks

	watts float64
	dirty bool
}

// MachineNode is one simulated machine: the unchanged sim.Machine leaf
// evaluator plus its fleet profile, burst stream, and current power
// estimate.
type MachineNode struct {
	ID      string
	Index   int
	Machine *sim.Machine
	Profile *workloads.FleetProfile

	parent *Level
	rng    *mathx.SplitMix64 // burst schedule stream
	watts  float64

	// trueWatts mirrors the sim's hidden ground-truth meter (TrueWatts on
	// step, idle watts when parked). It exists so verification can close
	// the loop against reality; the control plane must never read it.
	trueWatts float64

	// Burst state. A machine is either idle (no pending event beyond its
	// next wake) or inside a burst with a precomputed per-second demand.
	active       bool
	burstEnd     int64
	demand       sim.Demand
	pendingDur   int64
	pendingLevel float64
	// pendingWake is true while a wake event sits in the heap, so profile
	// migration can tell "parked forever" from "parked until its wake".
	pendingWake bool

	// capture switches the machine's steps to the full-signals path so
	// drivers can export its counter vector (for /v1/estimate/cluster).
	capture bool
	lastSig counters.Signals
}

// Watts returns the machine's current power estimate in watts.
func (m *MachineNode) Watts() float64 { return m.watts }

// TrueWatts returns the machine's hidden ground-truth power. Verification
// only: a controller reading this is cheating.
func (m *MachineNode) TrueWatts() float64 { return m.trueWatts }

// Active reports whether the machine is inside a burst.
func (m *MachineNode) Active() bool { return m.active }

// Build turns a validated spec into a simulatable topology. Machine
// seeds, burst streams, and (for grids) platform/profile assignment all
// derive from the spec seed, so the same document always builds the same
// fleet.
func Build(s *Spec) (*Topology, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	tree := s.Tree
	if s.Grid != nil {
		tree = s.Grid.expandTree(s.Name, s.Seed)
	}
	topo := &Topology{Name: s.Name, Seed: s.Seed}
	root, err := topo.buildLevel(tree, nil, 1)
	if err != nil {
		return nil, err
	}
	topo.Root = root
	// Seed the aggregates: everything starts dirty so the first read
	// performs one full bottom-up sum.
	for _, l := range topo.Levels {
		l.dirty = true
	}
	return topo, nil
}

func (t *Topology) buildLevel(n *Node, parent *Level, depth int) (*Level, error) {
	l := &Level{Name: n.Name, Depth: depth, parent: parent}
	t.Levels = append(t.Levels, l)
	for _, ms := range n.Machines {
		spec, err := sim.Platform(ms.Platform)
		if err != nil {
			return nil, err
		}
		kind := ms.Profile
		if kind == "" {
			kind = workloads.ProfileBursty
		}
		prof, err := workloads.FleetProfileByName(kind)
		if err != nil {
			return nil, err
		}
		m, err := sim.NewMachine(spec, ms.ID, mathx.DeriveSeed(t.Seed, "m:"+ms.ID))
		if err != nil {
			return nil, fmt.Errorf("cluster: building machine %q: %w", ms.ID, err)
		}
		mn := &MachineNode{
			ID:      ms.ID,
			Index:   len(t.Machines),
			Machine: m,
			Profile: prof,
			parent:  l,
			rng:     mathx.NewSplitMix(mathx.DeriveSeed(t.Seed, "burst:"+ms.ID)),
			watts:   m.IdleWatts(),
		}
		mn.trueWatts = m.IdleWatts()
		l.Machines = append(l.Machines, mn)
		t.Machines = append(t.Machines, mn)
	}
	for _, c := range n.Children {
		cl, err := t.buildLevel(c, l, depth+1)
		if err != nil {
			return nil, err
		}
		l.Children = append(l.Children, cl)
	}
	return l, nil
}

// Watts returns the level's aggregate power, recomputing only dirty
// subtrees. A clean node returns its cached sum unchanged, and a dirty
// node re-adds the same children in the same slice order as a full
// recompute would — which is why the incremental total is bit-identical
// to FullRecompute, not merely close.
func (l *Level) Watts() float64 {
	if !l.dirty {
		return l.watts
	}
	var sum float64
	if len(l.Machines) > 0 {
		for _, m := range l.Machines {
			sum += m.watts
		}
	} else {
		for _, c := range l.Children {
			sum += c.Watts()
		}
	}
	l.watts = sum
	l.dirty = false
	return sum
}

// GroundTruthWatts re-sums the subtree over the hidden per-machine
// TrueWatts. It bypasses the incremental cache on purpose: it is the
// verification meter a capping run is judged against, never a control
// input, so it does not need (or get) the dirty-bit fast path.
func (l *Level) GroundTruthWatts() float64 {
	var sum float64
	if len(l.Machines) > 0 {
		for _, m := range l.Machines {
			sum += m.trueWatts
		}
	} else {
		for _, c := range l.Children {
			sum += c.GroundTruthWatts()
		}
	}
	return sum
}

// FindLevel returns the first level (root first, depth-first) with the
// given name. Capping policies address budget targets this way.
func (t *Topology) FindLevel(name string) (*Level, bool) {
	for _, l := range t.Levels {
		if l.Name == name {
			return l, true
		}
	}
	return nil, false
}

// FullRecompute ignores every cache and dirty bit and re-sums the whole
// subtree. The composability property test holds Watts() to this value
// bit-for-bit after every event.
func (l *Level) FullRecompute() float64 {
	var sum float64
	if len(l.Machines) > 0 {
		for _, m := range l.Machines {
			sum += m.watts
		}
	} else {
		for _, c := range l.Children {
			sum += c.FullRecompute()
		}
	}
	return sum
}

// markDirty invalidates the path from this level to the root, stopping
// at the first already-dirty ancestor (its path is already invalid).
func (l *Level) markDirty() {
	for n := l; n != nil && !n.dirty; n = n.parent {
		n.dirty = true
	}
}
