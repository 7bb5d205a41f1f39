package obs

import (
	"fmt"
	"io"
)

// TraceSchema is the versioned identifier stamped into every trace file.
// Readers reject anything else, so the format can evolve without silent
// misparses — the same contract as the xlf-bench artifacts.
const TraceSchema = "xlf-trace/v1"

// TraceMeta is the header line of a trace file: run provenance plus the
// span accounting a reader needs to detect truncation.
type TraceMeta struct {
	// Schema must be TraceSchema.
	Schema string `json:"schema"`
	// Seed is the RNG seed the traced run used.
	Seed int64 `json:"seed"`
	// Clock names the clock mode ("step" or "wall").
	Clock string `json:"clock"`
	// Source names what produced the trace (e.g. "xlf-bench -exp E1").
	Source string `json:"source,omitempty"`
	// Spans is the number of span lines that follow the header.
	Spans int `json:"spans"`
	// Evicted counts spans the ring buffer displaced before export: a
	// nonzero value means the trace is a suffix of the run.
	Evicted uint64 `json:"evicted,omitempty"`
}

// Validate checks the header invariants a well-formed trace satisfies.
func (m TraceMeta) Validate() error {
	switch {
	case m.Schema != TraceSchema:
		return fmt.Errorf("obs: trace schema %q, want %q", m.Schema, TraceSchema)
	case m.Spans < 0:
		return fmt.Errorf("obs: negative span count %d", m.Spans)
	case m.Clock == "":
		return fmt.Errorf("obs: trace meta missing clock mode")
	default:
		return nil
	}
}

// WriteTrace encodes a trace as JSONL: one header line with the meta,
// then one compact JSON object per span. Span Seq values are renumbered
// into file order (1..n) so that traces assembled from several tracers —
// or from the same run at different parallelism — are byte-identical
// whenever the span sequence is. The meta's Schema and Spans fields are
// filled in here; callers set the provenance fields.
func WriteTrace(w io.Writer, meta TraceMeta, spans []Span) error {
	meta.Schema = TraceSchema
	meta.Spans = len(spans)
	return writeJSONL(w, "trace", meta, jsonlSection{name: "span", n: len(spans), encode: func(i int) any {
		s := spans[i]
		s.Seq = uint64(i + 1)
		return s
	}})
}

// ReadTrace decodes a trace written by WriteTrace, validating the schema
// version and that the file holds exactly the span count the header
// promises.
func ReadTrace(r io.Reader) (TraceMeta, []Span, error) {
	var meta TraceMeta
	var spans []Span
	err := readJSONL(r, "trace", &meta, func() []jsonlSection {
		return []jsonlSection{{name: "span", n: meta.Spans, decode: decodeInto(&spans)}}
	})
	if err != nil {
		return TraceMeta{}, nil, err
	}
	return meta, spans, nil
}
