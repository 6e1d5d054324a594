package core

import (
	"reflect"
	"testing"

	"repro/internal/models"
)

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	if got := sortedKeys(m); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("sortedKeys = %v", got)
	}
	if got := sortedKeys(map[string]int{}); len(got) != 0 {
		t.Errorf("sortedKeys(empty) = %v", got)
	}
}

func TestGridEntryLabel(t *testing.T) {
	e := GridEntry{Tech: models.TechQuadratic, Spec: models.FeatureSpec{Name: "cluster"}}
	if e.Label() != "QC" {
		t.Errorf("Label = %q, want QC", e.Label())
	}
	e = GridEntry{Tech: models.TechLinear, Spec: models.CPUOnlySpec()}
	if e.Label() != "LU" {
		t.Errorf("Label = %q, want LU", e.Label())
	}
}

func TestSpecConstructors(t *testing.T) {
	c := ClusterSpec([]string{"a", "b"})
	if c.Name != "cluster" || len(c.Counters) != 2 {
		t.Errorf("ClusterSpec = %+v", c)
	}
	g := GeneralSpec([]string{"x"})
	if g.Name != "general" || g.Label() != "G" {
		t.Errorf("GeneralSpec = %+v", g)
	}
}
