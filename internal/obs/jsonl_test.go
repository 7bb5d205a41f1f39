package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestArtifactRejection runs malformed xlf-metrics/v1 files, and the
// xlf-trace/v1 cases TestTraceSchemaRejection and TestTraceTruncation do
// not cover, through the shared JSONL reader: bad headers, a schema
// crossed with the other artifact's, truncation (short means truncated),
// extra records (long means corrupted) and undecodable records are all
// rejected.
func TestArtifactRejection(t *testing.T) {
	var trace bytes.Buffer
	if err := WriteTrace(&trace, TraceMeta{Seed: 1, Clock: "step"}, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	windows, dumps := sampleTelemetry()
	var metrics bytes.Buffer
	if err := WriteMetrics(&metrics, MetricsMeta{Seed: 1, Clock: "step", Interval: time.Second}, windows, dumps); err != nil {
		t.Fatal(err)
	}
	tl := strings.SplitAfter(trace.String(), "\n")   // header, 3 spans, ""
	ml := strings.SplitAfter(metrics.String(), "\n") // header, 2 windows, 1 dump, ""
	join := func(lines ...string) string { return strings.Join(lines, "") }

	readTrace := func(s string) error { _, _, err := ReadTrace(strings.NewReader(s)); return err }
	readMetrics := func(s string) error { _, _, _, err := ReadMetrics(strings.NewReader(s)); return err }
	cases := []struct {
		name  string
		read  func(string) error
		input string
	}{
		{"trace/metrics schema", readTrace, ml[0]},
		{"trace/bad span", readTrace, join(tl[0], tl[1], "{not json\n", tl[3])},
		{"metrics/empty", readMetrics, ""},
		{"metrics/unknown version", readMetrics, strings.Replace(metrics.String(), MetricsSchema, "xlf-metrics/v999", 1)},
		{"metrics/trace schema", readMetrics, tl[0]},
		{"metrics/zero interval", readMetrics, `{"schema":"xlf-metrics/v1","seed":1,"clock":"step","interval_ns":0,"windows":0,"dumps":0}` + "\n"},
		{"metrics/negative dumps", readMetrics, `{"schema":"xlf-metrics/v1","seed":1,"clock":"step","interval_ns":1,"windows":0,"dumps":-1}` + "\n"},
		{"metrics/truncated dumps", readMetrics, join(ml[:3]...)},
		{"metrics/truncated windows", readMetrics, join(ml[:2]...)},
		{"metrics/extra record", readMetrics, metrics.String() + ml[3]},
		{"metrics/bad window", readMetrics, join(ml[0], "{not json\n", ml[2], ml[3])},
	}
	for _, tc := range cases {
		if err := tc.read(tc.input); err == nil {
			t.Errorf("%s: reader accepted %q", tc.name, tc.input)
		}
	}
}

// FuzzReadJSONL feeds arbitrary bytes to both artifact readers, the file
// boundary xlf-trace reads from disk: they must never panic, and
// whatever they accept must re-encode to a file that reads back and
// re-encodes to the same bytes, with the same header.
// scripts/check.sh runs this as a smoke target.
func FuzzReadJSONL(f *testing.F) {
	var trace bytes.Buffer
	if err := WriteTrace(&trace, TraceMeta{Seed: 1, Clock: "step", Source: "fuzz", Evicted: 2}, sampleSpans()); err != nil {
		f.Fatal(err)
	}
	windows, dumps := sampleTelemetry()
	var metrics bytes.Buffer
	if err := WriteMetrics(&metrics, MetricsMeta{Seed: 1, Clock: "step", Interval: time.Second}, windows, dumps); err != nil {
		f.Fatal(err)
	}
	f.Add(trace.Bytes())
	f.Add(metrics.Bytes())
	f.Add([]byte(`{"schema":"xlf-trace/v1","clock":"wall","spans":1}` + "\n\n" + `{"seq":9,"layer":"core","attrs":{}}` + "\n"))
	f.Add([]byte(`{"schema":"xlf-metrics/v1","clock":"step","interval_ns":1,"windows":1,"dumps":0}` + "\n" + `{"counters":[]}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if meta, spans, err := ReadTrace(bytes.NewReader(data)); err == nil {
			var once, twice bytes.Buffer
			if err := WriteTrace(&once, meta, spans); err != nil {
				t.Fatalf("re-encoding an accepted trace: %v", err)
			}
			meta2, spans2, err := ReadTrace(bytes.NewReader(once.Bytes()))
			if err != nil {
				t.Fatalf("re-encoded trace rejected: %v\n%s", err, once.Bytes())
			}
			if meta2 != meta {
				t.Fatalf("trace header %+v read back as %+v", meta, meta2)
			}
			if err := WriteTrace(&twice, meta2, spans2); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
				t.Fatalf("trace re-encoding not stable (err %v):\n%s\n---\n%s", err, once.Bytes(), twice.Bytes())
			}
		}
		if meta, windows, dumps, err := ReadMetrics(bytes.NewReader(data)); err == nil {
			var once, twice bytes.Buffer
			if err := WriteMetrics(&once, meta, windows, dumps); err != nil {
				t.Fatalf("re-encoding accepted metrics: %v", err)
			}
			meta2, windows2, dumps2, err := ReadMetrics(bytes.NewReader(once.Bytes()))
			if err != nil {
				t.Fatalf("re-encoded metrics rejected: %v\n%s", err, once.Bytes())
			}
			if meta2 != meta {
				t.Fatalf("metrics header %+v read back as %+v", meta, meta2)
			}
			if err := WriteMetrics(&twice, meta2, windows2, dumps2); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
				t.Fatalf("metrics re-encoding not stable (err %v):\n%s\n---\n%s", err, once.Bytes(), twice.Bytes())
			}
		}
	})
}
