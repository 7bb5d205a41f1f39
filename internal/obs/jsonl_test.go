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
