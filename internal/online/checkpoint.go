package online

import (
	"fmt"

	"repro/internal/mathx"
)

// RetrainerState is the serializable form of a Retrainer's labeled-sample
// buffers, so the adaptation loop's training data survives a restart
// instead of starting every boot with empty rings.
type RetrainerState struct {
	Names    []string                 `json:"names"`
	Capacity int                      `json:"capacity"`
	Machines map[string]MachineBuffer `json:"machines,omitempty"`
}

// MachineBuffer is one machine's buffered labeled seconds, oldest first.
type MachineBuffer struct {
	Platform string      `json:"platform"`
	Rows     [][]float64 `json:"rows"`
	Power    []float64   `json:"power"`
}

// State snapshots the buffers, oldest first, for checkpointing. The
// snapshot stays consistent while the retrainer keeps ingesting: each
// buffer is copied under the lock, and stored rows are never mutated.
func (rt *Retrainer) State() RetrainerState {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := RetrainerState{
		Names:    append([]string(nil), rt.names...),
		Capacity: rt.capacity,
		Machines: make(map[string]MachineBuffer, len(rt.buffers)),
	}
	for id, b := range rt.buffers {
		mb := MachineBuffer{Platform: rt.platform[id],
			Rows: make([][]float64, b.Len()), Power: make([]float64, b.Len())}
		for i := range mb.Rows {
			l := b.At(i)
			mb.Rows[i], mb.Power[i] = l.row, l.watts
		}
		st.Machines[id] = mb
	}
	return st
}

// Restore refills the buffers from a checkpointed state. The counter-name
// order must match the running configuration — restoring rows recorded
// under a different feature stream would silently mistrain every future
// challenger, so a mismatch is an error, not a best effort.
func (rt *Retrainer) Restore(st RetrainerState) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(st.Names) != len(rt.names) {
		return fmt.Errorf("online: checkpoint has %d counters, retrainer expects %d", len(st.Names), len(rt.names))
	}
	for i, n := range st.Names {
		if n != rt.names[i] {
			return fmt.Errorf("online: checkpoint counter %d is %q, retrainer expects %q", i, n, rt.names[i])
		}
	}
	for id, mb := range st.Machines {
		if len(mb.Rows) != len(mb.Power) {
			return fmt.Errorf("online: checkpoint machine %s has %d rows but %d labels", id, len(mb.Rows), len(mb.Power))
		}
		b := mathx.NewRing[labeled](rt.capacity)
		rt.buffers[id] = b
		rt.platform[id] = mb.Platform
		for i, row := range mb.Rows {
			if len(row) != len(rt.names) {
				return fmt.Errorf("online: checkpoint machine %s row %d has %d counters, want %d", id, i, len(row), len(rt.names))
			}
			b.Push(labeled{append([]float64(nil), row...), mb.Power[i]})
		}
	}
	return nil
}
