package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func buildTrace(t *testing.T, machine string, run int, n int) *Trace {
	t.Helper()
	b := NewBuilder("Core2", "Sort", machine, run, []string{"c0", "c1", "c2"}, 25)
	for i := 0; i < n; i++ {
		if err := b.Add([]float64{float64(i), float64(i * 2), 7}, 30+float64(i), 30.5+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuilderBasics(t *testing.T) {
	tr := buildTrace(t, "m0", 0, 10)
	if tr.Len() != 10 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.X.At(3, 1) != 6 {
		t.Errorf("X(3,1) = %v", tr.X.At(3, 1))
	}
	if tr.Power[9] != 39 || tr.TruePower[9] != 39.5 {
		t.Errorf("power values wrong: %v %v", tr.Power[9], tr.TruePower[9])
	}
	if tr.IdleWatts != 25 {
		t.Errorf("IdleWatts = %v", tr.IdleWatts)
	}
}

func TestBuilderRowLengthCheck(t *testing.T) {
	b := NewBuilder("p", "w", "m", 0, []string{"a", "b"}, 1)
	if err := b.Add([]float64{1}, 2, 2); err == nil {
		t.Error("expected row length error")
	}
}

func TestBuilderEmptyTrace(t *testing.T) {
	b := NewBuilder("p", "w", "m", 0, []string{"a"}, 1)
	tr, err := b.Build()
	if err != nil {
		t.Fatalf("empty build: %v", err)
	}
	if tr.Len() != 0 || tr.X.Cols != 1 {
		t.Errorf("empty trace: len=%d cols=%d", tr.Len(), tr.X.Cols)
	}
}

func TestValidateCatchesMismatch(t *testing.T) {
	tr := buildTrace(t, "m0", 0, 5)
	tr.Power = tr.Power[:3]
	if err := tr.Validate(); err == nil {
		t.Error("expected validation error for truncated power")
	}
}

func TestPool(t *testing.T) {
	a := buildTrace(t, "m0", 0, 4)
	b := buildTrace(t, "m1", 0, 6)
	x, y, err := Pool([]*Trace{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != 10 || x.Cols != 3 || len(y) != 10 {
		t.Fatalf("pooled dims %dx%d, %d responses", x.Rows, x.Cols, len(y))
	}
	if x.At(4, 0) != 0 || y[4] != 30 {
		t.Errorf("second trace rows misplaced: x=%v y=%v", x.At(4, 0), y[4])
	}
}

func TestPoolMismatchedNames(t *testing.T) {
	a := buildTrace(t, "m0", 0, 3)
	b := buildTrace(t, "m1", 0, 3)
	b.Names = []string{"c0", "cX", "c2"}
	if _, _, err := Pool([]*Trace{a, b}); err == nil {
		t.Error("expected error for mismatched counter names")
	}
	if _, _, err := Pool(nil); err == nil {
		t.Error("expected error for empty pool")
	}
}

func TestSubsample(t *testing.T) {
	tr := buildTrace(t, "m0", 0, 10)
	s := Subsample(tr, 3)
	if s.Len() != 4 {
		t.Fatalf("subsampled len = %d, want 4", s.Len())
	}
	if s.Power[1] != 33 {
		t.Errorf("subsample picked wrong rows: %v", s.Power)
	}
	if got := Subsample(tr, 1); got != tr {
		t.Error("step<=1 should return the original")
	}
}

func TestCapRows(t *testing.T) {
	ts := []*Trace{buildTrace(t, "m0", 0, 100), buildTrace(t, "m1", 0, 100)}
	capped := CapRows(ts, 50)
	total := capped[0].Len() + capped[1].Len()
	if total > 60 {
		t.Errorf("CapRows kept %d rows, want <= ~50", total)
	}
	same := CapRows(ts, 1000)
	if same[0] != ts[0] {
		t.Error("under-cap should return originals")
	}
	same2 := CapRows(ts, 0)
	if same2[0] != ts[0] {
		t.Error("zero cap should disable capping")
	}
}

func TestSelectColumns(t *testing.T) {
	tr := buildTrace(t, "m0", 0, 5)
	s, err := SelectColumns(tr, []string{"c2", "c0"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Names, []string{"c2", "c0"}) {
		t.Errorf("Names = %v", s.Names)
	}
	if s.X.At(2, 0) != 7 || s.X.At(2, 1) != 2 {
		t.Errorf("column selection wrong: %v %v", s.X.At(2, 0), s.X.At(2, 1))
	}
	if _, err := SelectColumns(tr, []string{"nope"}); err == nil {
		t.Error("expected error for unknown counter")
	}
}

func TestByRunAndRuns(t *testing.T) {
	traces := []*Trace{
		buildTrace(t, "m0", 2, 2),
		buildTrace(t, "m1", 0, 2),
		buildTrace(t, "m0", 0, 2),
		buildTrace(t, "m1", 1, 2),
	}
	groups := ByRun(traces)
	if len(groups) != 3 || len(groups[0]) != 2 {
		t.Errorf("ByRun groups wrong: %v", groups)
	}
	if !reflect.DeepEqual(Runs(traces), []int{0, 1, 2}) {
		t.Errorf("Runs = %v", Runs(traces))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := buildTrace(t, "m0", 3, 7)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Platform != tr.Platform || got.Workload != tr.Workload ||
		got.MachineID != tr.MachineID || got.Run != tr.Run {
		t.Errorf("metadata mismatch: %+v", got)
	}
	if got.IdleWatts != tr.IdleWatts {
		t.Errorf("IdleWatts = %v", got.IdleWatts)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("length mismatch")
	}
	for i := 0; i < tr.Len(); i++ {
		if math.Abs(got.Power[i]-tr.Power[i]) > 1e-12 {
			t.Fatalf("power[%d] mismatch", i)
		}
		for j := 0; j < tr.X.Cols; j++ {
			if math.Abs(got.X.At(i, j)-tr.X.At(i, j)) > 1e-12 {
				t.Fatalf("X(%d,%d) mismatch", i, j)
			}
		}
	}
	if !reflect.DeepEqual(got.Names, tr.Names) {
		t.Errorf("names mismatch: %v", got.Names)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := ReadCSV(strings.NewReader("# platform=p\nbogus,header\n")); err == nil {
		t.Error("expected error for bad header")
	}
	bad := "# platform=p workload=w machine=m run=0 idle_watts=1\npower_w,true_power_w,c0\nNaNope,1,2\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("expected error for unparsable power")
	}
}
