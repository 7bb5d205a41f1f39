package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The shared JSONL envelope behind xlf-trace/v1 and xlf-metrics/v1: one
// header line carrying the schema, provenance and record counts, then the
// counted sections in order, one compact JSON object per line.

// jsonlMaxLine bounds one artifact line. A flight-recorder dump carries a
// whole span ring, so metrics lines reach hundreds of KiB.
const jsonlMaxLine = 4 << 20

// jsonlHeader is an artifact's first line (TraceMeta, MetricsMeta).
type jsonlHeader interface{ Validate() error }

// jsonlSection is one counted run of same-typed records after the header.
// Writers set encode, readers set decode.
type jsonlSection struct {
	name   string                  // record noun for errors: "span", "window", "dump"
	n      int                     // records the header promises
	encode func(i int) any         // the i'th record to write
	decode func(line []byte) error // decode and keep one read record
}

// decodeInto returns a section decoder appending each record to *dst.
func decodeInto[T any](dst *[]T) func([]byte) error {
	return func(line []byte) error {
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return err
		}
		*dst = append(*dst, v)
		return nil
	}
}

// writeJSONL validates and writes the header, then every section's
// records in order.
func writeJSONL(w io.Writer, kind string, hdr jsonlHeader, sections ...jsonlSection) error {
	if err := hdr.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("obs: encode %s meta: %w", kind, err)
	}
	for _, s := range sections {
		for i := 0; i < s.n; i++ {
			if err := enc.Encode(s.encode(i)); err != nil {
				return fmt.Errorf("obs: encode %s %d: %w", s.name, i+1, err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: flush %s: %w", kind, err)
	}
	return nil
}

// readJSONL decodes and validates the header into hdr, then fills the
// sections the header lays out, requiring exactly the promised count of
// each: a short file means truncation, extra lines mean corruption.
func readJSONL(r io.Reader, kind string, hdr jsonlHeader, layout func() []jsonlSection) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), jsonlMaxLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return fmt.Errorf("obs: read %s header: %w", kind, err)
		}
		return fmt.Errorf("obs: empty %s file", kind)
	}
	if err := json.Unmarshal(sc.Bytes(), hdr); err != nil {
		return fmt.Errorf("obs: decode %s header: %w", kind, err)
	}
	if err := hdr.Validate(); err != nil {
		return err
	}
	sections := layout()
	cur, got := 0, 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		for cur < len(sections) && got == sections[cur].n {
			cur, got = cur+1, 0
		}
		if cur == len(sections) {
			return fmt.Errorf("obs: %s file holds more records than its header promises", kind)
		}
		if err := sections[cur].decode(line); err != nil {
			return fmt.Errorf("obs: decode %s %d: %w", sections[cur].name, got+1, err)
		}
		got++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: read %s: %w", kind, err)
	}
	for ; cur < len(sections); cur, got = cur+1, 0 {
		if s := sections[cur]; got != s.n {
			return fmt.Errorf("obs: %s file holds %d %ss, header promises %d", kind, got, s.name, s.n)
		}
	}
	return nil
}
