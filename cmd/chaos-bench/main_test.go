package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRequiresOneMode: no mode, or more than one, is a usage error
// (exit 2) rather than a run of whichever mode the code checks first.
func TestCLIRequiresOneMode(t *testing.T) {
	cases := map[string][]string{
		"none":              {},
		"quick only":        {"-quick"},
		"control+overload":  {"-control", "-overload"},
		"cluster+control":   {"-cluster", "-control", "-quick"},
		"check+cluster":     {"-check", "BENCH_cluster.json", "-cluster"},
		"stray argument":    {"-cluster", "extra"},
		"deleted grid flag": {"-cluster", "-sim-seconds", "120"},
	}
	for name, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
		if !strings.Contains(stderr.String(), "Usage") {
			t.Errorf("%s: no usage on stderr: %q", name, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: ran something: %q", name, stdout.String())
		}
	}
}

// TestCheckRejectsUnknownSchema: -check names a schema it has no
// validator for, the retired serving schema included, rather than
// validating the document against some other schema's contract.
func TestCheckRejectsUnknownSchema(t *testing.T) {
	dir := t.TempDir()
	for _, schema := range []string{"chaos-bench/v1", ""} {
		p := filepath.Join(dir, "doc.json")
		if err := os.WriteFile(p, []byte(`{"schema": "`+schema+`", "cells": []}`), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-check", p}, &stdout, &stderr); code != 1 {
			t.Errorf("schema %q: exit %d, want 1", schema, code)
		}
		if want := `unknown schema "` + schema + `"`; !strings.Contains(stderr.String(), want) {
			t.Errorf("schema %q: stderr %q does not name it", schema, stderr.String())
		}
	}
}
