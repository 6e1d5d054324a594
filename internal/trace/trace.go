// Package trace holds the measured datasets the modeling pipeline works
// from: per-machine time series of OS counter vectors plus metered wall
// power, sampled at 1 Hz — the moral equivalent of the paper's
// Perfmon+WattsUp logs. It also provides CSV persistence, pooling, and the
// run-based cross-validation splits the evaluation uses.
package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/mathx"
)

// Trace is one machine's log for one workload run.
type Trace struct {
	Platform  string
	Workload  string
	MachineID string
	Run       int

	Names []string      // counter names, one per column of X
	X     *mathx.Matrix // T x len(Names) counter samples
	Power []float64     // metered wall power, watts, len T

	// TruePower is the simulator's hidden ground truth. It is carried for
	// experiment diagnostics only; the modeling pipeline never reads it.
	TruePower []float64

	// IdleWatts is the machine's measured idle power (the Power_idle term
	// of the DRE metric).
	IdleWatts float64
}

// Len returns the number of 1 Hz samples.
func (t *Trace) Len() int { return len(t.Power) }

// Validate checks internal consistency.
func (t *Trace) Validate() error {
	if t.X == nil {
		return fmt.Errorf("trace: nil counter matrix")
	}
	if t.X.Rows != len(t.Power) {
		return fmt.Errorf("trace: %d counter rows but %d power samples", t.X.Rows, len(t.Power))
	}
	if t.X.Cols != len(t.Names) {
		return fmt.Errorf("trace: %d counter columns but %d names", t.X.Cols, len(t.Names))
	}
	if len(t.TruePower) != 0 && len(t.TruePower) != len(t.Power) {
		return fmt.Errorf("trace: %d true-power samples but %d metered", len(t.TruePower), len(t.Power))
	}
	return nil
}

// Builder accumulates samples row by row.
type Builder struct {
	t    Trace
	rows [][]float64
}

// NewBuilder starts a trace with the given metadata and counter names.
func NewBuilder(platform, workload, machineID string, run int, names []string, idleWatts float64) *Builder {
	return &Builder{t: Trace{
		Platform: platform, Workload: workload, MachineID: machineID,
		Run: run, Names: append([]string(nil), names...), IdleWatts: idleWatts,
	}}
}

// Add appends one second of samples. It keeps its own copy of row.
func (b *Builder) Add(row []float64, meterWatts, trueWatts float64) error {
	if len(row) != len(b.t.Names) {
		return fmt.Errorf("trace: row has %d values, want %d", len(row), len(b.t.Names))
	}
	b.rows = append(b.rows, append([]float64(nil), row...))
	b.t.Power = append(b.t.Power, meterWatts)
	b.t.TruePower = append(b.t.TruePower, trueWatts)
	return nil
}

// Build finalizes the trace.
func (b *Builder) Build() (*Trace, error) {
	x, err := mathx.FromRows(b.rows)
	if err != nil {
		return nil, err
	}
	if len(b.rows) == 0 {
		x = mathx.NewMatrix(0, len(b.t.Names))
	}
	t := b.t
	t.X = x
	return &t, t.Validate()
}

// Pool concatenates the rows of several traces (which must share the same
// counter names in the same order) into a single design matrix and power
// vector — the paper's strategy of pooling counters and power across all
// machines in a cluster for model fitting.
func Pool(traces []*Trace) (*mathx.Matrix, []float64, error) {
	if len(traces) == 0 {
		return nil, nil, fmt.Errorf("trace: nothing to pool")
	}
	names := traces[0].Names
	total := 0
	for _, t := range traces {
		if err := t.Validate(); err != nil {
			return nil, nil, err
		}
		if len(t.Names) != len(names) {
			return nil, nil, fmt.Errorf("trace: pooling traces with different counter sets (%d vs %d)", len(t.Names), len(names))
		}
		for i := range names {
			if t.Names[i] != names[i] {
				return nil, nil, fmt.Errorf("trace: counter name mismatch at %d: %q vs %q", i, t.Names[i], names[i])
			}
		}
		total += t.Len()
	}
	x := mathx.NewMatrix(total, len(names))
	y := make([]float64, 0, total)
	row := 0
	for _, t := range traces {
		copy(x.Data[row*x.Cols:], t.X.Data)
		row += t.X.Rows
		y = append(y, t.Power...)
	}
	return x, y, nil
}

// Subsample returns a copy of t keeping every step-th sample, used to make
// training sets ~10x smaller than test sets as in the paper's evaluation.
func Subsample(t *Trace, step int) *Trace {
	if step <= 1 {
		return t
	}
	var rows []int
	for i := 0; i < t.Len(); i += step {
		rows = append(rows, i)
	}
	out := &Trace{
		Platform: t.Platform, Workload: t.Workload, MachineID: t.MachineID,
		Run: t.Run, Names: t.Names, IdleWatts: t.IdleWatts,
		X: t.X.SelectRows(rows),
	}
	for _, i := range rows {
		out.Power = append(out.Power, t.Power[i])
		if len(t.TruePower) > 0 {
			out.TruePower = append(out.TruePower, t.TruePower[i])
		}
	}
	return out
}

// CapRows evenly subsamples a trace set, every trace with the same step,
// so its pooled row count comes to about maxRows (at most maxRows plus one
// per trace). A set already within the cap, or maxRows <= 0, is returned
// as is.
func CapRows(ts []*Trace, maxRows int) []*Trace {
	total := 0
	for _, t := range ts {
		total += t.Len()
	}
	if maxRows <= 0 || total <= maxRows {
		return ts
	}
	step := (total + maxRows - 1) / maxRows
	out := make([]*Trace, len(ts))
	for i, t := range ts {
		out[i] = Subsample(t, step)
	}
	return out
}

// SelectColumns returns a copy of t keeping only the named counters, in
// the given order.
func SelectColumns(t *Trace, names []string) (*Trace, error) {
	idx := make([]int, 0, len(names))
	byName := map[string]int{}
	for i, n := range t.Names {
		byName[n] = i
	}
	for _, n := range names {
		j, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("trace: counter %q not in trace", n)
		}
		idx = append(idx, j)
	}
	return &Trace{
		Platform: t.Platform, Workload: t.Workload, MachineID: t.MachineID,
		Run: t.Run, Names: append([]string(nil), names...), IdleWatts: t.IdleWatts,
		X: t.X.SelectCols(idx), Power: t.Power, TruePower: t.TruePower,
	}, nil
}

// ByRun groups traces by run number, returning runs in ascending order.
func ByRun(traces []*Trace) map[int][]*Trace {
	out := map[int][]*Trace{}
	for _, t := range traces {
		out[t.Run] = append(out[t.Run], t)
	}
	return out
}

// Runs returns the sorted distinct run numbers present.
func Runs(traces []*Trace) []int {
	seen := map[int]bool{}
	var out []int
	for _, t := range traces {
		if !seen[t.Run] {
			seen[t.Run] = true
			out = append(out, t.Run)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// WriteCSV serializes a trace: metadata comment lines, a header row, then
// one row per second (power, true power, counters...).
func WriteCSV(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# platform=%s workload=%s machine=%s run=%d idle_watts=%g\n",
		t.Platform, t.Workload, t.MachineID, t.Run, t.IdleWatts)
	cw := csv.NewWriter(bw)
	header := append([]string{"power_w", "true_power_w"}, t.Names...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i := 0; i < t.Len(); i++ {
		row[0] = strconv.FormatFloat(t.Power[i], 'g', -1, 64)
		tp := 0.0
		if len(t.TruePower) > 0 {
			tp = t.TruePower[i]
		}
		row[1] = strconv.FormatFloat(tp, 'g', -1, 64)
		for j := 0; j < t.X.Cols; j++ {
			row[2+j] = strconv.FormatFloat(t.X.At(i, j), 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	meta, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("trace: reading metadata line: %w", err)
	}
	t := &Trace{}
	meta = strings.TrimSpace(strings.TrimPrefix(meta, "#"))
	for _, field := range strings.Fields(meta) {
		kv := strings.SplitN(field, "=", 2)
		if len(kv) != 2 {
			continue
		}
		switch kv[0] {
		case "platform":
			t.Platform = kv[1]
		case "workload":
			t.Workload = kv[1]
		case "machine":
			t.MachineID = kv[1]
		case "run":
			if t.Run, err = strconv.Atoi(kv[1]); err != nil {
				return nil, fmt.Errorf("trace: bad run %q: %w", kv[1], err)
			}
		case "idle_watts":
			if t.IdleWatts, err = strconv.ParseFloat(kv[1], 64); err != nil {
				return nil, fmt.Errorf("trace: bad idle_watts %q: %w", kv[1], err)
			}
		}
	}
	cr := csv.NewReader(br)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(header) < 3 || header[0] != "power_w" || header[1] != "true_power_w" {
		return nil, fmt.Errorf("trace: unexpected header %v", header)
	}
	t.Names = append([]string(nil), header[2:]...)
	var rows [][]float64
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading row: %w", err)
		}
		p, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad power %q: %w", rec[0], err)
		}
		tp, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad true power %q: %w", rec[1], err)
		}
		row := make([]float64, len(rec)-2)
		for j := 2; j < len(rec); j++ {
			if row[j-2], err = strconv.ParseFloat(rec[j], 64); err != nil {
				return nil, fmt.Errorf("trace: bad counter value %q: %w", rec[j], err)
			}
		}
		t.Power = append(t.Power, p)
		t.TruePower = append(t.TruePower, tp)
		rows = append(rows, row)
	}
	t.X, err = mathx.FromRows(rows)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		t.X = mathx.NewMatrix(0, len(t.Names))
	}
	return t, t.Validate()
}
