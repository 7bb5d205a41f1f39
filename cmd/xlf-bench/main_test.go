package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"xlf/internal/exp"
	"xlf/internal/obs"
)

func TestRunFlagValidation(t *testing.T) {
	unwritable := filepath.Join(t.TempDir(), "no", "such", "dir.jsonl")
	cases := []struct {
		args []string
		want int
	}{
		{[]string{}, 2},                   // nothing selected
		{[]string{"-list"}, 0},            // listing
		{[]string{"-exp", "T9"}, 2},       // no such table
		{[]string{"-exp", "F9"}, 2},       // no such figure
		{[]string{"-table", "3"}, 2},      // selection is by -exp only
		{[]string{"-exp", "E99"}, 2},      // unknown experiment
		{[]string{"-exp", "E4,bogus"}, 2}, // unknown member of a comma list
		{[]string{"-exp", ""}, 2},         // empty selection
		{[]string{"-bogusflag"}, 2},       // parse error
		{[]string{"-exp", "F2"}, 0},       // cheap figure renders
		{[]string{"-exp", "T3"}, 0},       // cipher table measures
		{[]string{"-exp", "E6", "-seed", "3"}, 0},
		{[]string{"-exp", "T1,F2,E4"}, 0},  // comma list across kinds
		{[]string{"-exp", " e4 , f2 "}, 0}, // whitespace and case tolerated
		{[]string{"-exp", "E4", "-clock", "sundial"}, 2},
		{[]string{"-exp", "E4", "-parallel", "0"}, 2},
		{[]string{"-exp", "E4,E5", "-parallel", "4", "-clock", "step"}, 0},
		{[]string{"-exp", "F2", "-telemetry", "x", "-rollup-interval", "0"}, 2},
		{[]string{"-exp", "F2", "-telemetry", unwritable}, 1},
	}
	for _, tc := range cases {
		if got := run(tc.args); got != tc.want {
			t.Errorf("run(%v) = %d, want %d", tc.args, got, tc.want)
		}
	}
}

// TestRunWritesArtifacts drives the -json flag end to end: every written
// file decodes and validates under the schema, and a step-clock run
// writes byte-identical files at -parallel 1 and 2.
func TestRunWritesArtifacts(t *testing.T) {
	ids := []string{"E4", "T3"}
	dirs := map[string]string{}
	for _, parallel := range []string{"1", "2"} {
		dirs[parallel] = filepath.Join(t.TempDir(), "bench"+parallel)
		if got := run([]string{"-exp", "E4,T3", "-clock", "step", "-parallel", parallel, "-seed", "7", "-json", dirs[parallel]}); got != 0 {
			t.Fatalf("run at -parallel %s = %d, want 0", parallel, got)
		}
	}
	for _, id := range ids {
		seq, err := os.ReadFile(exp.ArtifactPath(dirs["1"], id))
		if err != nil {
			t.Fatal(err)
		}
		var a exp.Artifact
		if err := json.Unmarshal(seq, &a); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := a.Validate(); err != nil {
			t.Error(err)
		}
		if a.ID != id || a.Seed != 7 || a.Clock != exp.ClockStep {
			t.Errorf("%s metadata = %+v", id, a.RunMeta)
		}
		if len(a.Numbers) == 0 {
			t.Errorf("%s has no headline numbers", id)
		}
		par, err := os.ReadFile(exp.ArtifactPath(dirs["2"], id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seq, par) {
			t.Errorf("%s: -parallel 1 and -parallel 2 artifacts differ:\n%s\nvs\n%s", id, seq, par)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dirs["1"], "*")); len(files) != len(ids) {
		t.Errorf("wrote %v, want one artifact per experiment", files)
	}
}

// TestRunJSONFailure covers the artifact-write error path (exit 1, not a
// usage error).
func TestRunJSONFailure(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"-exp", "F2", "-json", file}); got != 1 {
		t.Errorf("run with unwritable -json dir = %d, want 1", got)
	}
}

// TestRunTraceByteIdentity drives -trace and -telemetry together end to
// end: a step-clock E1,E8 run must serialize identical trace and telemetry
// files across repeated runs and across -parallel levels, and both files
// must parse under their schemas. E1 supplies the telemetry windows; E8
// forks two homes through Sweep, so its spans pin the fork-ordered trace.
func TestRunTraceByteIdentity(t *testing.T) {
	dir := t.TempDir()
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i, parallel := range []string{"1", "1", "4"} {
		args := []string{"-exp", "E1,E8", "-clock", "step", "-seed", "7", "-parallel", parallel,
			"-trace", filepath.Join(dir, fmt.Sprintf("t%d.jsonl", i)),
			"-telemetry", filepath.Join(dir, fmt.Sprintf("m%d.jsonl", i))}
		if got := run(args); got != 0 {
			t.Fatalf("run(%v) = %d, want 0", args, got)
		}
	}
	for _, kind := range []string{"t", "m"} {
		a := read(kind + "0.jsonl")
		for _, i := range []string{"1", "2"} {
			if !bytes.Equal(a, read(kind+i+".jsonl")) {
				t.Errorf("%s%s.jsonl differs from %s0.jsonl: step-clock artifacts must be byte-identical", kind, i, kind)
			}
		}
	}
	meta, spans, err := obs.ReadTrace(bytes.NewReader(read("t0.jsonl")))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Seed != 7 || meta.Clock != exp.ClockStep || len(spans) == 0 {
		t.Errorf("trace meta = %+v with %d spans", meta, len(spans))
	}
	// E8's homes must contribute spans of their own.
	if got := run([]string{"-exp", "E1", "-clock", "step", "-seed", "7", "-trace", filepath.Join(dir, "e1.jsonl")}); got != 0 {
		t.Fatalf("E1-only run = %d, want 0", got)
	}
	if _, e1, err := obs.ReadTrace(bytes.NewReader(read("e1.jsonl"))); err != nil || len(e1) >= len(spans) {
		t.Errorf("E1 alone traced %d spans (err %v), E1,E8 traced %d: E8 is missing from the trace", len(e1), err, len(spans))
	}
	mmeta, windows, _, err := obs.ReadMetrics(bytes.NewReader(read("m0.jsonl")))
	if err != nil {
		t.Fatal(err)
	}
	if mmeta.Seed != 7 || mmeta.Interval != time.Second || len(windows) == 0 {
		t.Errorf("metrics meta = %+v with %d windows", mmeta, len(windows))
	}
}

// TestRunTraceFailure covers the trace-write error path (exit 1).
func TestRunTraceFailure(t *testing.T) {
	if got := run([]string{"-exp", "F2", "-trace", filepath.Join(t.TempDir(), "no", "such", "dir.jsonl")}); got != 1 {
		t.Errorf("run with unwritable -trace path = %d, want 1", got)
	}
}
