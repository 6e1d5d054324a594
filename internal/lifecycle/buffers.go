package lifecycle

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mathx"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/trace"
)

// bufferCapacity is how many labeled seconds each machine's retrain
// buffer keeps: its newest 2,048.
const bufferCapacity = 2048

var (
	retrainsTotal  = obs.Default().Counter("chaos_retrains_total", nil)
	invalidSamples = obs.Default().Counter("chaos_invalid_samples_total", nil)
)

// labeled is one buffered second: a private copy of the counter row,
// never mutated once stored, so copies of a buffer may share it, and its
// metered watts.
type labeled struct {
	row   []float64
	watts float64
}

// buffers holds each machine's newest labeled seconds, the rows a
// challenger is fitted from. The orchestrator's mutex guards it.
type buffers struct {
	capacity int
	rings    map[string]*mathx.Ring[labeled] // machineID -> recent seconds
	platform map[string]string
}

func newBuffers(capacity int) *buffers {
	return &buffers{
		capacity: capacity,
		rings:    map[string]*mathx.Ring[labeled]{},
		platform: map[string]string{},
	}
}

// add records one labeled second whose row the caller has already
// copied. A second with a non-finite counter or meter reading is skipped
// (and counted in chaos_invalid_samples_total), so it cannot poison a
// later fit.
func (b *buffers) add(s online.Sample, watts float64) {
	if math.IsNaN(watts) || math.IsInf(watts, 0) {
		invalidSamples.Inc()
		return
	}
	for _, v := range s.Counters {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			invalidSamples.Inc()
			return
		}
	}
	r := b.rings[s.MachineID]
	if r == nil {
		r = mathx.NewRing[labeled](b.capacity)
		b.rings[s.MachineID] = r
	}
	b.platform[s.MachineID] = s.Platform
	r.Push(labeled{s.Counters, watts})
}

// snapshots is the number of labeled snapshots the buffers hold: the
// most seconds any machine has buffered.
func (b *buffers) snapshots() int {
	n := 0
	for _, r := range b.rings {
		n = max(n, r.Len())
	}
	return n
}

// machineRows is one machine's buffered seconds, oldest first.
type machineRows struct {
	id, platform string
	rows         []labeled
}

// copyRows lists every machine's seconds oldest first, in machine-ID
// order, which fixes the order of each platform's pooled traces so the
// same buffers always fit the same model. Rows are shared, not copied.
func (b *buffers) copyRows() []machineRows {
	out := make([]machineRows, 0, len(b.rings))
	for id, r := range b.rings {
		out = append(out, machineRows{id, b.platform[id], r.AppendTo(nil)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// fit trains a fresh cluster model of the technique and spec on the
// copied rows, pooling machines per platform as the offline pipeline
// does, but fitting every row: no subsampling, no cap.
func fit(machines []machineRows, names []string, tech models.Technique, spec models.FeatureSpec) (*models.ClusterModel, error) {
	span := obs.StartSpan("online.retrain")
	defer span.End()
	// A machine with fewer rows than the design width would make the
	// normal equations rank-deficient and the fit degenerate (an exact
	// interpolation of noise at best; regress.OLS itself demands strictly
	// more rows than parameters). Fail fast with the machine named rather
	// than admit a garbage model or surface a cryptic solver error.
	minRows := spec.NumInputs() + 2
	byPlatform := map[string][]*trace.Trace{}
	for _, m := range machines {
		if len(m.rows) == 0 {
			continue
		}
		if len(m.rows) < minRows {
			return nil, fmt.Errorf("lifecycle: machine %s has %d buffered samples, need at least %d (features + intercept + 1) to retrain",
				m.id, len(m.rows), minRows)
		}
		builder := trace.NewBuilder(m.platform, "online", m.id, 0, names, 0)
		for _, l := range m.rows {
			if err := builder.Add(l.row, l.watts, l.watts); err != nil {
				return nil, err
			}
		}
		t, err := builder.Build()
		if err != nil {
			return nil, err
		}
		byPlatform[m.platform] = append(byPlatform[m.platform], t)
	}
	if len(byPlatform) == 0 {
		return nil, fmt.Errorf("lifecycle: no buffered samples to retrain from")
	}
	var mms []*models.MachineModel
	for p, ts := range byPlatform {
		mm, err := models.FitMachineModel(tech, ts, spec,
			models.FitOptions{FreqCol: spec.FreqInputIndex(), MaxKnots: 8})
		if err != nil {
			return nil, fmt.Errorf("lifecycle: retraining %s: %w", p, err)
		}
		mms = append(mms, mm)
	}
	cm, err := models.NewClusterModel(mms...)
	if err == nil {
		retrainsTotal.Inc()
	}
	return cm, err
}

// buffersDoc is the checkpoint form of the retrain buffers, under the
// checkpoint's "retrainer" key.
type buffersDoc struct {
	Names    []string              `json:"names"`
	Capacity int                   `json:"capacity"`
	Machines map[string]machineDoc `json:"machines,omitempty"`
}

// machineDoc is one machine's buffered seconds, oldest first.
type machineDoc struct {
	Platform string      `json:"platform"`
	Rows     [][]float64 `json:"rows"`
	Power    []float64   `json:"power"`
}

// doc lists the buffers oldest first for a checkpoint; it shares the
// stored rows, which are never mutated.
func (b *buffers) doc(names []string) buffersDoc {
	d := buffersDoc{
		Names:    append([]string(nil), names...),
		Capacity: b.capacity,
		Machines: make(map[string]machineDoc, len(b.rings)),
	}
	for id, r := range b.rings {
		md := machineDoc{Platform: b.platform[id],
			Rows: make([][]float64, r.Len()), Power: make([]float64, r.Len())}
		for i := range md.Rows {
			l := r.At(i)
			md.Rows[i], md.Power[i] = l.row, l.watts
		}
		d.Machines[id] = md
	}
	return d
}

// restoreBuffers rebuilds buffers of the given capacity from a
// checkpoint; a machine that checkpointed more seconds keeps its newest.
// Rows recorded under another counter order would silently mistrain
// every later challenger, so a mismatch is an error, not a best effort.
func restoreBuffers(d buffersDoc, names []string, capacity int) (*buffers, error) {
	if err := sameNames(d.Names, names); err != nil {
		return nil, err
	}
	b := newBuffers(capacity)
	for id, md := range d.Machines {
		if len(md.Rows) != len(md.Power) {
			return nil, fmt.Errorf("lifecycle: checkpoint machine %s has %d rows but %d labels", id, len(md.Rows), len(md.Power))
		}
		for i, row := range md.Rows {
			if len(row) != len(names) {
				return nil, fmt.Errorf("lifecycle: checkpoint machine %s row %d has %d counters, want %d", id, i, len(row), len(names))
			}
			b.add(online.Sample{MachineID: id, Platform: md.Platform, Counters: row}, md.Power[i])
		}
	}
	return b, nil
}

// sameNames checks a checkpoint's counter order against the running one.
func sameNames(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("lifecycle: checkpoint has %d counters, config expects %d", len(got), len(want))
	}
	for i, n := range got {
		if n != want[i] {
			return fmt.Errorf("lifecycle: checkpoint counter %d is %q, config expects %q", i, n, want[i])
		}
	}
	return nil
}
