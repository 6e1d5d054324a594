package faults

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzScenario hardens the JSON scenario decoder the same way
// trace.FuzzReadCSV hardens the CSV parser: ParseScenario must return an
// error or a scenario, never panic; any scenario it accepts must pass
// Validate and survive a marshal/re-parse round trip (the decoder rejects
// unknown fields, so everything it accepts it can re-emit).
func FuzzScenario(f *testing.F) {
	// Seed corpus: a valid scenario exercising every field, then
	// progressively broken variants targeting each validation branch.
	f.Add(`{
		"name": "all-fields",
		"defaults": {"drop_prob": 0.1, "corrupt_prob": 0.05,
			"stuck_prob": 0.01, "stuck_seconds": 3,
			"latency_prob": 0.2, "latency_ms": 40},
		"machines": {"m1": {"drop_prob": 0.9}},
		"meter_dropouts": [{"start_s": 10, "end_s": 20}],
		"crashes": [{"machine": "m0", "at_s": 5, "downtime_s": 4}],
		"peers": {"n2": {"slow_prob": 0.2, "slow_ms": 250}},
		"load": [{"start_s": 2, "end_s": 8, "multiplier": 5}]
	}`)
	f.Add(`{}`)
	f.Add(``)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(`{"name": 42}`)
	f.Add(`{"no_such_field": true}`)
	f.Add(`{"defaults": {"drop_prob": 1.5}}`)
	f.Add(`{"defaults": {"drop_prob": -0.1}}`)
	f.Add(`{"defaults": {"stuck_prob": 0.5}}`)
	f.Add(`{"defaults": {"latency_prob": 0.5, "latency_ms": -1}}`)
	f.Add(`{"machines": {"": {}}}`)
	f.Add(`{"meter_dropouts": [{"start_s": 5, "end_s": 5}]}`)
	f.Add(`{"meter_dropouts": [{"start_s": -1, "end_s": 5}]}`)
	f.Add(`{"meter_dropouts": [{"start_s": 0, "end_s": 9}, {"start_s": 5, "end_s": 12}]}`)
	f.Add(`{"crashes": [{"machine": "", "at_s": 0, "downtime_s": 1}]}`)
	f.Add(`{"crashes": [{"machine": "m", "at_s": 0, "downtime_s": 0}]}`)
	f.Add(`{"crashes": [{"machine": "m", "at_s": 0, "downtime_s": 5}, {"machine": "m", "at_s": 3, "downtime_s": 5}]}`)
	f.Add(`{"name": "` + strings.Repeat("x", 1000) + `"}`)
	f.Add(strings.Repeat("{", 100))
	f.Add(`{"defaults": {"drop_prob": 1e999}}`)
	f.Add(`{"load": [{"start_s": 0, "end_s": 10, "multiplier": 0}]}`)
	f.Add(`{"load": [{"start_s": 0, "end_s": 10, "multiplier": -2}]}`)
	f.Add(`{"load": [{"start_s": 0, "end_s": 10, "multiplier": 1e999}]}`)
	f.Add(`{"load": [{"start_s": 5, "end_s": 5, "multiplier": 2}]}`)
	f.Add(`{"load": [{"start_s": 0, "end_s": 10, "multiplier": 2}, {"start_s": 5, "end_s": 15, "multiplier": 3}]}`)
	f.Add(`{"name": "x"} garbage`)
	f.Add(`{"name": "x"}{}`)
	f.Add(`{"name": "x"}}`)
	f.Add(`{"name": "x"}]`)

	f.Fuzz(func(t *testing.T, data string) {
		s, err := ParseScenario(strings.NewReader(data))
		if err != nil {
			return
		}
		if s == nil {
			t.Fatal("nil scenario with nil error")
		}
		// ParseScenario validates before returning; accepted scenarios must
		// agree.
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted scenario fails Validate: %v", err)
		}
		// Round trip: everything accepted can be re-emitted and re-parsed
		// to an equally valid scenario.
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted scenario cannot be marshaled: %v", err)
		}
		back, err := ParseScenario(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("round trip failed: %v\njson: %s", err, out)
		}
		if back.Name != s.Name || len(back.Machines) != len(s.Machines) ||
			len(back.MeterDropouts) != len(s.MeterDropouts) || len(back.Crashes) != len(s.Crashes) ||
			len(back.Peers) != len(s.Peers) || len(back.Load) != len(s.Load) {
			t.Fatalf("round trip changed shape: %+v vs %+v", back, s)
		}
	})
}
