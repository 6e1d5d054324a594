package faults

import (
	"os"
	"strings"
	"testing"
)

// TestFaultScenarioParsing is the table-driven schema check: bad JSON,
// impossible probabilities, malformed and overlapping windows all fail
// with a useful message; good scenarios round-trip.
func TestFaultScenarioParsing(t *testing.T) {
	cases := []struct {
		name    string
		json    string
		wantErr string // substring; "" means parse must succeed
	}{
		{
			name:    "bad json",
			json:    `{"defaults": {`,
			wantErr: "parse scenario",
		},
		{
			name:    "unknown field",
			json:    `{"defaults": {"drop_probability": 0.5}}`,
			wantErr: "unknown field",
		},
		{
			name:    "negative probability",
			json:    `{"defaults": {"drop_prob": -0.1}}`,
			wantErr: "outside [0, 1]",
		},
		{
			name:    "probability above one",
			json:    `{"machines": {"m0": {"corrupt_prob": 1.5}}}`,
			wantErr: "outside [0, 1]",
		},
		{
			name:    "stuck prob without duration",
			json:    `{"defaults": {"stuck_prob": 0.1}}`,
			wantErr: "stuck_seconds",
		},
		{
			name:    "latency prob without magnitude",
			json:    `{"defaults": {"latency_prob": 0.1}}`,
			wantErr: "latency_ms",
		},
		{
			name:    "negative latency",
			json:    `{"defaults": {"latency_prob": 0.1, "latency_ms": -5}}`,
			wantErr: "negative latency_ms",
		},
		{
			name:    "empty machine id",
			json:    `{"machines": {"": {"drop_prob": 0.1}}}`,
			wantErr: "empty machine ID",
		},
		{
			name:    "inverted meter window",
			json:    `{"meter_dropouts": [{"start_s": 100, "end_s": 50}]}`,
			wantErr: "empty or inverted",
		},
		{
			name:    "negative meter window",
			json:    `{"meter_dropouts": [{"start_s": -5, "end_s": 50}]}`,
			wantErr: "negative second",
		},
		{
			name: "overlapping meter windows",
			json: `{"meter_dropouts": [
				{"start_s": 10, "end_s": 60}, {"start_s": 50, "end_s": 90}]}`,
			wantErr: "overlap",
		},
		{
			name:    "crash missing machine",
			json:    `{"crashes": [{"at_s": 10, "downtime_s": 5}]}`,
			wantErr: "empty machine ID",
		},
		{
			name:    "crash zero downtime",
			json:    `{"crashes": [{"machine": "m0", "at_s": 10, "downtime_s": 0}]}`,
			wantErr: "non-positive downtime",
		},
		{
			name: "overlapping crashes same machine",
			json: `{"crashes": [
				{"machine": "m0", "at_s": 10, "downtime_s": 20},
				{"machine": "m0", "at_s": 25, "downtime_s": 10}]}`,
			wantErr: "overlap",
		},
		{
			name: "overlapping crashes different machines ok",
			json: `{"crashes": [
				{"machine": "m0", "at_s": 10, "downtime_s": 20},
				{"machine": "m1", "at_s": 15, "downtime_s": 20}]}`,
		},
		{
			name: "full valid scenario",
			json: `{
				"name": "ok",
				"defaults": {"drop_prob": 0.05, "corrupt_prob": 0.01,
					"stuck_prob": 0.01, "stuck_seconds": 5,
					"latency_prob": 0.1, "latency_ms": 40},
				"machines": {"m1": {"drop_prob": 0.5}},
				"meter_dropouts": [{"start_s": 0, "end_s": 10}, {"start_s": 10, "end_s": 20}],
				"crashes": [{"machine": "m0", "at_s": 30, "downtime_s": 10}]}`,
		},
		{
			name: "empty scenario valid",
			json: `{}`,
		},
		{
			name: "trailing whitespace valid",
			json: "{\"name\": \"ok\"}\n\t ",
		},
		{
			name:    "trailing garbage",
			json:    `{"name": "ok"} garbage`,
			wantErr: "trailing data",
		},
		{
			name:    "trailing document",
			json:    `{"name": "ok"}{}`,
			wantErr: "trailing data",
		},
		{
			name:    "trailing close brace",
			json:    `{"name": "ok"}}`,
			wantErr: "trailing data",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := ParseScenario(strings.NewReader(tc.json))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("ParseScenario: %v", err)
				}
				if sc == nil {
					t.Fatal("nil scenario without error")
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got none", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestFaultScenarioLoadMissingFile checks the file loader's error path.
func TestFaultScenarioLoadMissingFile(t *testing.T) {
	if _, err := LoadScenario("does-not-exist.json"); err == nil {
		t.Fatal("expected error for missing scenario file")
	}
}

// TestFaultCanonicalScenarioLoads keeps the shipped example scenario
// parseable — it is referenced from chaos-live's usage text.
func TestFaultCanonicalScenarioLoads(t *testing.T) {
	sc, err := LoadScenario("../../examples/faults-crashy.json")
	if err != nil {
		t.Fatalf("examples/faults-crashy.json: %v", err)
	}
	if sc.Name != "crashy" {
		t.Errorf("canonical scenario name = %q, want crashy", sc.Name)
	}
	if len(sc.Crashes) == 0 {
		t.Error("canonical scenario has no crash — it is the crashy scenario")
	}
	if len(sc.MeterDropouts) == 0 {
		t.Error("canonical scenario has no meter dropout window")
	}
}

// TestFaultScenarioFileRoundTrip writes a scenario to disk and loads it
// back through LoadScenario.
func TestFaultScenarioFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/sc.json"
	body := `{"name": "rt", "defaults": {"drop_prob": 0.25}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "rt" || sc.Defaults.DropProb != 0.25 {
		t.Errorf("round-trip mismatch: %+v", sc)
	}
}
