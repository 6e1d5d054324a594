package main

import (
	_ "embed"
	"encoding/json"
	"strconv"
)

// expected.json holds, per seed, the outcome a dc-cap capped run must
// reproduce, and per dataset seed (see trainSeeds) the outcome a train
// build must reproduce. Every dc-cap and train run prints the outcomes it
// produced as "entry" lines (see noteEntry); a run with --seconds 1
// regenerates the entries of its seed, ready to paste under the workload.
//
//go:embed expected.json
var expectedJSON []byte

var expected struct {
	DCCap map[string]dcOutcome    `json:"dc-cap"`
	Train map[string]trainOutcome `json:"train"`
}

func init() {
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		panic("perfbench: expected.json: " + err.Error())
	}
}

func expectedDC(seed int64) (dcOutcome, bool) {
	o, ok := expected.DCCap[strconv.FormatInt(seed, 10)]
	return o, ok
}

func expectedTrain(seed int64) (trainOutcome, bool) {
	o, ok := expected.Train[strconv.FormatInt(seed, 10)]
	return o, ok
}

// noteEntry prints an outcome as the expected.json line that would record
// it: `entry <workload> "<seed>": {...}`.
func (b *bench) noteEntry(workload string, seed int64, outcome any) {
	line, err := json.Marshal(outcome)
	if err != nil {
		b.fail("encoding the %s outcome of seed %d: %v", workload, seed, err)
		return
	}
	b.note("entry %s %q: %s", workload, strconv.FormatInt(seed, 10), line)
}
