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

// TestScoreFoldMatchesScoreRun: cross-validation's one-pass scoring gives
// ScoreRun's cluster summary and each machine's own summary bit for bit,
// on a two-platform cluster, and refuses a run whose traces are not
// aligned, as PredictCluster does.
func TestScoreFoldMatchesScoreRun(t *testing.T) {
	ds, err := CollectHeterogeneous("Mix", []string{"Core2", "Opteron", "Core2", "Opteron"},
		[]string{"Sort"}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	byRun := trace.ByRun(ds.ByWorkload["Sort"])
	train, test := byRun[0], byRun[1]
	spec := ClusterSpec([]string{counters.CPUTotal, counters.CPUFreqCore0, counters.DiskBytes})
	cm, err := FitCluster(models.TechQuadratic, spec, train, 0)
	if err != nil {
		t.Fatal(err)
	}
	machines, cluster, err := scoreFold(cm, test)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ScoreRun(cm, test)
	if err != nil {
		t.Fatal(err)
	}
	if cluster != want {
		t.Errorf("cluster summary %+v, want ScoreRun's %+v", cluster, want)
	}
	if len(machines) != len(test) {
		t.Fatalf("%d machine summaries for %d traces", len(machines), len(test))
	}
	for i, tr := range test {
		pred, err := cm.ByPlatform[tr.Platform].PredictTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := metrics.Evaluate(pred, tr.Power, tr.IdleWatts)
		if err != nil {
			t.Fatal(err)
		}
		if machines[i] != want {
			t.Errorf("machine %s summary %+v, want %+v", tr.MachineID, machines[i], want)
		}
	}

	ragged := append([]*trace.Trace{trace.Subsample(test[0], 2)}, test[1:]...)
	if _, _, err := scoreFold(cm, ragged); err == nil {
		t.Error("scoreFold accepted traces of different lengths")
	}
}
