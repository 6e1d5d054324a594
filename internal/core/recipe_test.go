package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/counters"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/trace"
)

func rowCount(ts []*trace.Trace) int {
	n := 0
	for _, t := range ts {
		n += t.Len()
	}
	return n
}

// TestFitClusterMatchesHandRecipe holds FitCluster and ScoreRun to the
// paper's recipe written out by hand, on a two-platform cluster: every
// training trace subsampled to every second row, each platform's rows
// pooled and then capped, one quadratic fit per platform with at most 8
// knots per feature, composed per Eq. 5, and scored by DRE over the
// machines' summed idle power. It runs once uncapped and once with a cap
// that binds, so capping before subsampling would show.
func TestFitClusterMatchesHandRecipe(t *testing.T) {
	ds, err := CollectHeterogeneous("Mix", []string{"Core2", "Opteron", "Core2", "Opteron"},
		[]string{"Sort"}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	byRun := trace.ByRun(ds.ByWorkload["Sort"])
	train, test := byRun[0], byRun[1]
	spec := ClusterSpec([]string{counters.CPUTotal, counters.CPUFreqCore0, counters.DiskBytes})

	for _, maxRows := range []int{0, 150} {
		byPlatform := map[string][]*trace.Trace{}
		for _, tr := range train {
			byPlatform[tr.Platform] = append(byPlatform[tr.Platform], trace.Subsample(tr, 2))
		}
		var mms []*models.MachineModel
		for _, p := range []string{"Core2", "Opteron"} {
			ts := trace.CapRows(byPlatform[p], maxRows)
			if maxRows > 0 && rowCount(ts) >= rowCount(byPlatform[p]) {
				t.Fatalf("cap %d does not bind on %s's %d rows", maxRows, p, rowCount(byPlatform[p]))
			}
			mm, err := models.FitMachineModel(models.TechQuadratic, ts, spec,
				models.FitOptions{FreqCol: spec.FreqInputIndex(), MaxKnots: 8})
			if err != nil {
				t.Fatal(err)
			}
			mms = append(mms, mm)
		}
		ref, err := models.NewClusterModel(mms...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FitCluster(models.TechQuadratic, spec, train, maxRows)
		if err != nil {
			t.Fatalf("FitCluster (cap %d): %v", maxRows, err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		refJSON, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, refJSON) {
			t.Errorf("cap %d: FitCluster's model differs from the hand recipe's:\n got %s\nwant %s",
				maxRows, gotJSON, refJSON)
		}

		pred, actual, err := ref.PredictCluster(test)
		if err != nil {
			t.Fatal(err)
		}
		idle := 0.0
		for _, tr := range test {
			idle += tr.IdleWatts
		}
		want, err := metrics.Evaluate(pred, actual, idle)
		if err != nil {
			t.Fatal(err)
		}
		score, err := ScoreRun(got, test)
		if err != nil {
			t.Fatalf("ScoreRun (cap %d): %v", maxRows, err)
		}
		if score != want {
			t.Errorf("cap %d: ScoreRun = %+v, want %+v", maxRows, score, want)
		}
	}
}
