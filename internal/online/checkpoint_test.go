package online

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/counters"
	"repro/internal/models"
)

// synthNames is the counter order of synthSecond's samples.
var synthNames = []string{counters.CPUTotal, counters.CPUFreqCore0, "c", "d"}

// synthSecond is machine m's labeled second i: four counters sweeping
// co-prime cycles, and metered watts that depend on them and on the
// previous second's frequency.
func synthSecond(m, i int) (Sample, float64) {
	freq := func(i int) float64 { return 1600 + 200*float64((i/7+m)%5) }
	u := float64((i*37 + m*11) % 101)
	c := float64((i * 53) % 89)
	d := float64((i*29 + m) % 61)
	w := 50 + 0.3*u + 0.01*freq(i) + 0.02*freq(i-1) + 0.1*c + 0.001*u*d
	return Sample{MachineID: "m" + string(rune('0'+m)), Platform: "p",
		Counters: []float64{u, freq(i), c, d}}, w
}

// TestRecoveryRetrainAcrossRestore retrains from wrapped rings before and
// after a State→Restore round trip. Both fits must read every machine's
// seconds oldest-first, so the two models serialize identically — for a
// lag-free spec and for a lagged-frequency spec, whose lag column reads
// the previous row.
func TestRecoveryRetrainAcrossRestore(t *testing.T) {
	for _, spec := range []models.FeatureSpec{
		{Name: "lag-free", Counters: synthNames},
		{Name: "lagged", Counters: synthNames, LagFreq: true},
	} {
		t.Run(spec.Name, func(t *testing.T) {
			rt, err := NewRetrainer(synthNames, 300)
			if err != nil {
				t.Fatal(err)
			}
			// 450 seconds into 300 slots: both rings wrap.
			for i := 0; i < 450; i++ {
				for m := 0; m < 2; m++ {
					if err := rt.Add(synthSecond(m, i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			rt2, err := NewRetrainer(synthNames, 300)
			if err != nil {
				t.Fatal(err)
			}
			if err := rt2.Restore(rt.State()); err != nil {
				t.Fatal(err)
			}
			var docs [2][]byte
			for k, r := range []*Retrainer{rt, rt2} {
				cm, err := r.Retrain(models.TechLinear, spec)
				if err != nil {
					t.Fatal(err)
				}
				if docs[k], err = json.Marshal(cm); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(docs[0], docs[1]) {
				t.Errorf("retrain differs across State/Restore:\nbefore %s\nafter  %s", docs[0], docs[1])
			}
		})
	}
}

// TestRecoveryRetrainerState round-trips the retrain buffers through the
// serialized checkpoint form, including a wrapped ring whose chronological
// order must be preserved, and locks the mismatch guards.
func TestRecoveryRetrainerState(t *testing.T) {
	names := []string{"a", "b"}
	rt, err := NewRetrainer(names, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 6 adds into a capacity-4 ring: the ring wraps, keeping seconds 2..5.
	for i := 0; i < 6; i++ {
		s := Sample{MachineID: "m0", Platform: "p", Counters: []float64{float64(i), float64(i * 2)}}
		if err := rt.Add(s, float64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Add(Sample{MachineID: "m1", Platform: "q", Counters: []float64{7, 8}}, 50); err != nil {
		t.Fatal(err)
	}

	st := rt.State()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded RetrainerState
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}

	m0 := decoded.Machines["m0"]
	wantRows := [][]float64{{2, 4}, {3, 6}, {4, 8}, {5, 10}}
	wantPower := []float64{102, 103, 104, 105}
	if !reflect.DeepEqual(m0.Rows, wantRows) || !reflect.DeepEqual(m0.Power, wantPower) {
		t.Fatalf("wrapped ring state = %+v / %+v, want %+v / %+v (oldest first)",
			m0.Rows, m0.Power, wantRows, wantPower)
	}
	if decoded.Machines["m1"].Platform != "q" {
		t.Fatalf("platform lost: %+v", decoded.Machines["m1"])
	}

	rt2, err := NewRetrainer(names, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	if got := rt2.Buffered("m0"); got != 4 {
		t.Fatalf("restored m0 buffered = %d, want 4", got)
	}
	if got := rt2.Buffered("m1"); got != 1 {
		t.Fatalf("restored m1 buffered = %d, want 1", got)
	}
	// The restored ring continues in order: one more add evicts the oldest.
	if err := rt2.Add(Sample{MachineID: "m0", Platform: "p", Counters: []float64{9, 9}}, 200); err != nil {
		t.Fatal(err)
	}
	st2 := rt2.State()
	if got := st2.Machines["m0"]; got.Power[0] != 103 || got.Power[3] != 200 {
		t.Fatalf("post-restore add broke ring order: %+v", got)
	}

	// Mismatched counter order must be refused.
	bad, err := NewRetrainer([]string{"b", "a"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Restore(decoded); err == nil {
		t.Fatal("counter-order mismatch accepted")
	}
	// Row/label length mismatch must be refused.
	broken := decoded
	mb := broken.Machines["m0"]
	mb.Power = mb.Power[:2]
	broken.Machines = map[string]MachineBuffer{"m0": mb}
	rt3, _ := NewRetrainer(names, 4)
	if err := rt3.Restore(broken); err == nil {
		t.Fatal("row/label mismatch accepted")
	}
}
