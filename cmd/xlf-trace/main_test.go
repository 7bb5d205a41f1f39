package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xlf/internal/obs"
)

// writeFixture writes a small three-layer trace and returns its path.
func writeFixture(t *testing.T) string {
	t.Helper()
	spans := []obs.Span{
		{Time: 1 * time.Second, Layer: obs.LayerDevice, Op: "keepalive", Device: "cam-1", Cause: "sealed"},
		{Time: 2 * time.Second, Dur: 3 * time.Millisecond, Layer: obs.LayerNetsim, Op: "deliver", Device: "cam-1"},
		{Time: 2 * time.Second, Dur: 5 * time.Millisecond, Layer: obs.LayerNetsim, Op: "deliver", Device: "bulb-1"},
		{Time: 3 * time.Second, Layer: obs.LayerCore, Op: "alert", Device: "cam-1", Cause: "critical"},
	}
	var buf bytes.Buffer
	meta := obs.TraceMeta{Seed: 7, Clock: "step", Source: "fixture"}
	if err := obs.WriteTrace(&buf, meta, spans); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRendersTimelineAndRollups(t *testing.T) {
	path := writeFixture(t)
	var out bytes.Buffer
	if got := run([]string{path}, &out); got != 0 {
		t.Fatalf("run = %d, want 0", got)
	}
	text := out.String()
	for _, want := range []string{
		"trace xlf-trace/v1", "seed=7", "clock=step", "source=fixture", "spans=4",
		"core", "device", "netsim", // timeline rows
		"keepalive", "deliver", "alert", // rollup ops
		"4ms", "5ms", // avg and max deliver latency
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunDeviceAndLayerFilters(t *testing.T) {
	path := writeFixture(t)
	var out bytes.Buffer
	if got := run([]string{"-device", "bulb-1", path}, &out); got != 0 {
		t.Fatalf("run = %d, want 0", got)
	}
	if text := out.String(); !strings.Contains(text, "(selected 1)") || strings.Contains(text, "keepalive") {
		t.Errorf("-device filter leaked foreign spans:\n%s", text)
	}
	out.Reset()
	if got := run([]string{"-layer", "netsim", path}, &out); got != 0 {
		t.Fatalf("run = %d, want 0", got)
	}
	if text := out.String(); !strings.Contains(text, "(selected 2)") || strings.Contains(text, "alert") {
		t.Errorf("-layer filter leaked foreign spans:\n%s", text)
	}
	out.Reset()
	if got := run([]string{"-device", "no-such", path}, &out); got != 0 {
		t.Fatalf("run with empty selection = %d, want 0", got)
	}
	if !strings.Contains(out.String(), "no spans") {
		t.Errorf("empty selection should say so:\n%s", out.String())
	}
}

func TestRunDeterministicOutput(t *testing.T) {
	path := writeFixture(t)
	var a, b bytes.Buffer
	if run([]string{path}, &a) != 0 || run([]string{path}, &b) != 0 {
		t.Fatal("run failed")
	}
	if a.String() != b.String() {
		t.Error("two renders of the same trace differ")
	}
}

func TestRunErrors(t *testing.T) {
	path := writeFixture(t)
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte(`{"schema":"xlf-trace/v9","clock":"step","spans":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want int
	}{
		{[]string{}, 2},                        // no file
		{[]string{path, path}, 2},              // two files
		{[]string{"-width", "3", path}, 2},     // width too small
		{[]string{"-bogus", path}, 2},          // parse error
		{[]string{"/does/not/exist.jsonl"}, 1}, // unreadable
		{[]string{bad}, 1},                     // wrong schema version
	}
	for _, tc := range cases {
		var out bytes.Buffer
		if got := run(tc.args, &out); got != tc.want {
			t.Errorf("run(%v) = %d, want %d", tc.args, got, tc.want)
		}
	}
}

func TestRunEvictionWarning(t *testing.T) {
	var buf bytes.Buffer
	meta := obs.TraceMeta{Seed: 1, Clock: "step", Evicted: 9}
	spans := []obs.Span{{Time: time.Second, Layer: obs.LayerSim, Op: "event"}}
	if err := obs.WriteTrace(&buf, meta, spans); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "evicted.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if got := run([]string{path}, &out); got != 0 {
		t.Fatalf("run = %d, want 0", got)
	}
	if !strings.Contains(out.String(), "WARNING: 9 spans were evicted") {
		t.Errorf("missing eviction warning:\n%s", out.String())
	}
}

func TestRunMetricsDroppedDumpsWarning(t *testing.T) {
	var buf bytes.Buffer
	meta := obs.MetricsMeta{Seed: 1, Clock: "step", Interval: time.Second, DroppedDumps: 3}
	if err := obs.WriteMetrics(&buf, meta, nil, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dropped.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if got := run([]string{"metrics", path}, &out); got != 0 {
		t.Fatalf("run = %d, want 0", got)
	}
	if !strings.Contains(out.String(), "WARNING: 3 flight-recorder dumps were dropped") {
		t.Errorf("missing dropped-dumps warning:\n%s", out.String())
	}
}
