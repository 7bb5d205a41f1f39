package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func sampleTelemetry() ([]WindowRecord, []Dump) {
	windows := []WindowRecord{
		{
			Src: "E10/1000", Index: 0, Start: 0, End: time.Second,
			Counters: []RateSample{{Name: "city.sent", Total: 100, Delta: 100, PerSec: 100}},
			Hists: []WindowHist{{
				Name: "detect.latency_ns.flood", Delta: 2, Count: 2, Sum: 100,
				P50: 48, P95: 60, P99: 60, CumP50: 48, CumP95: 60, CumP99: 60,
			}},
		},
		{Src: "E10/1000", Index: 1, Start: time.Second, End: 2 * time.Second},
	}
	dumps := []Dump{{
		Src: "E10/1000", Time: 1500 * time.Millisecond,
		Reasons: []string{"alert", "slo-breach"}, Suppressed: 3,
		Spans: []Span{{Seq: 1, Time: time.Second, Layer: LayerCore, Op: "alert"}},
	}}
	return windows, dumps
}

// TestMetricsGolden pins the exact xlf-metrics/v1 wire format. If this
// test breaks, the schema changed: bump MetricsSchema.
func TestMetricsGolden(t *testing.T) {
	windows, dumps := sampleTelemetry()
	var buf bytes.Buffer
	meta := MetricsMeta{Seed: 7, Clock: "step", Source: "test", Interval: time.Second, Evicted: 4}
	if err := WriteMetrics(&buf, meta, windows, dumps); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`{"schema":"xlf-metrics/v1","seed":7,"clock":"step","source":"test","interval_ns":1000000000,"windows":2,"dumps":1,"evicted":4}`,
		`{"src":"E10/1000","w":0,"start_ns":0,"end_ns":1000000000,"counters":[{"name":"city.sent","total":100,"delta":100,"per_sec":100}],"hists":[{"name":"detect.latency_ns.flood","delta":2,"count":2,"sum":100,"p50":48,"p95":60,"p99":60,"cum_p50":48,"cum_p95":60,"cum_p99":60}]}`,
		`{"src":"E10/1000","w":1,"start_ns":1000000000,"end_ns":2000000000}`,
		`{"src":"E10/1000","t_ns":1500000000,"reasons":["alert","slo-breach"],"suppressed":3,"spans":[{"seq":1,"t_ns":1000000000,"layer":"core","op":"alert"}]}`,
		``,
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricsRoundTrip: WriteMetrics then ReadMetrics reproduces the
// windows and dumps exactly, and two writes are byte-identical.
func TestMetricsRoundTrip(t *testing.T) {
	windows, dumps := sampleTelemetry()
	meta := MetricsMeta{Seed: 7, Clock: "step", Source: "test", Interval: time.Second}
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, meta, windows, dumps); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteMetrics(&buf2, meta, windows, dumps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two writes of the same telemetry differ")
	}

	got, gw, gd, err := ReadMetrics(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != MetricsSchema || got.Windows != 2 || got.Dumps != 1 || got.Seed != 7 {
		t.Errorf("meta = %+v", got)
	}
	if len(gw) != 2 || gw[0].Counters[0].Name != "city.sent" || gw[0].Hists[0].P95 != 60 {
		t.Errorf("windows = %+v", gw)
	}
	if len(gd) != 1 || gd[0].Suppressed != 3 || gd[0].Spans[0].Op != "alert" {
		t.Errorf("dumps = %+v", gd)
	}

	// Re-encoding the decoded telemetry reproduces the file.
	var buf3 bytes.Buffer
	if err := WriteMetrics(&buf3, got, gw, gd); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf3.Bytes()) {
		t.Fatal("decode/encode round trip changed bytes")
	}
}

// TestMetricsValidation: the header invariants Validate enforces before
// any record is read (file-level rejections are in TestArtifactRejection).
func TestMetricsValidation(t *testing.T) {
	if err := (MetricsMeta{Schema: MetricsSchema, Clock: "step", Interval: 1}).Validate(); err != nil {
		t.Errorf("well-formed header rejected: %v", err)
	}
	if err := (MetricsMeta{Schema: MetricsSchema, Clock: "step"}).Validate(); err == nil {
		t.Error("zero interval accepted")
	}
	if err := (MetricsMeta{Schema: MetricsSchema, Interval: 1}).Validate(); err == nil {
		t.Error("missing clock accepted")
	}
}
