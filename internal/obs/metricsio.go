package obs

import (
	"fmt"
	"io"
	"time"
)

// MetricsSchema is the versioned identifier stamped into every telemetry
// file: a header line, then the rollup windows, then the flight-recorder
// dumps, one compact JSON object per line. Readers reject anything else,
// the same contract as xlf-trace/v1.
const MetricsSchema = "xlf-metrics/v1"

// MetricsMeta is the header line of a telemetry file.
type MetricsMeta struct {
	// Schema must be MetricsSchema.
	Schema string `json:"schema"`
	// Seed is the RNG seed the run used.
	Seed int64 `json:"seed"`
	// Clock names the clock mode ("step" or "wall").
	Clock string `json:"clock"`
	// Source names what produced the file (e.g. "xlf-bench -exp E10").
	Source string `json:"source,omitempty"`
	// Interval is the rollup window length.
	Interval time.Duration `json:"interval_ns"`
	// Windows is the number of window lines that follow the header.
	Windows int `json:"windows"`
	// Dumps is the number of dump lines after the windows.
	Dumps int `json:"dumps"`
	// Evicted counts windows the rollup rings displaced before export.
	Evicted uint64 `json:"evicted,omitempty"`
	// DroppedDumps counts flight-recorder dumps the dump budget
	// discarded (FlightRecorder.DroppedDumps, summed over the sources).
	DroppedDumps uint64 `json:"dropped_dumps,omitempty"`
}

// Validate checks the header invariants a well-formed telemetry file
// satisfies.
func (m MetricsMeta) Validate() error {
	switch {
	case m.Schema != MetricsSchema:
		return fmt.Errorf("obs: metrics schema %q, want %q", m.Schema, MetricsSchema)
	case m.Windows < 0:
		return fmt.Errorf("obs: negative window count %d", m.Windows)
	case m.Dumps < 0:
		return fmt.Errorf("obs: negative dump count %d", m.Dumps)
	case m.Interval <= 0:
		return fmt.Errorf("obs: non-positive rollup interval %s", m.Interval)
	case m.Clock == "":
		return fmt.Errorf("obs: metrics meta missing clock mode")
	default:
		return nil
	}
}

// WriteMetrics encodes a telemetry artifact as JSONL: one meta line, then
// the windows, then the dumps. The meta's Schema and the two counts are
// filled in here; callers set the provenance fields. Window and dump
// order must already be deterministic (exp.Env collects its observation
// tree depth-first in fork order), so the bytes are reproducible across
// -parallel levels.
func WriteMetrics(w io.Writer, meta MetricsMeta, windows []WindowRecord, dumps []Dump) error {
	meta.Schema = MetricsSchema
	meta.Windows = len(windows)
	meta.Dumps = len(dumps)
	return writeJSONL(w, "metrics", meta,
		jsonlSection{name: "window", n: len(windows), encode: func(i int) any { return windows[i] }},
		jsonlSection{name: "dump", n: len(dumps), encode: func(i int) any { return dumps[i] }})
}

// ReadMetrics decodes a telemetry artifact written by WriteMetrics,
// validating the schema version and that the file holds exactly the
// window and dump counts the header promises.
func ReadMetrics(r io.Reader) (MetricsMeta, []WindowRecord, []Dump, error) {
	var meta MetricsMeta
	var windows []WindowRecord
	var dumps []Dump
	err := readJSONL(r, "metrics", &meta, func() []jsonlSection {
		return []jsonlSection{
			{name: "window", n: meta.Windows, decode: decodeInto(&windows)},
			{name: "dump", n: meta.Dumps, decode: decodeInto(&dumps)},
		}
	})
	if err != nil {
		return MetricsMeta{}, nil, nil, err
	}
	return meta, windows, dumps, nil
}
