package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// ledgerPackages are the buckets of the CPU ledger: every xlf package the
// workloads reach (the root facade is "xlf"), and "runtime" for samples
// whose stack holds no xlf frame (GC, scheduler, the harness itself).
var ledgerPackages = []string{
	"sim", "netsim", "testbed", "core", "ids", "dpi", "behavior", "analytics",
	"shaping", "lwc", "channel", "device", "service", "xauth", "attack", "obs",
	"xlf", "runtime",
}

// ledger accumulates CPU profile samples per package over any number of
// profiled regions.
type ledger struct {
	samples map[string]int64
	total   int64
	buf     bytes.Buffer
}

func newLedger() *ledger { return &ledger{samples: make(map[string]int64)} }

// profile runs fn under the CPU profiler and folds the samples it took.
func (l *ledger) profile(fn func() error) error {
	l.buf.Reset()
	if err := pprof.StartCPUProfile(&l.buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if runErr != nil {
		return runErr
	}
	return l.fold(l.buf.Bytes())
}

// share is the fraction of all folded samples attributed to pkg.
func (l *ledger) share(pkg string) float64 {
	if l.total == 0 {
		return 0
	}
	return float64(l.samples[pkg]) / float64(l.total)
}

// fold decodes a gzipped profile.proto and adds each sample's count to the
// package of its innermost xlf frame. It reads only what attribution
// needs: Profile.sample (2), .location (4), .function (5) and
// .string_table (6); Sample.location_id (1) and .value (2), whose first
// entry is the sample count; Location.id (1) and .line (4), innermost
// inlined frame first; Line.function_id (1); Function.id (1) and .name (2).
func (l *ledger) fold(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	top, err := fields(raw)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}

	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids
	)
	for _, f := range top {
		if f.wire != wireBytes {
			continue
		}
		if f.num == 6 {
			strs = append(strs, string(f.b))
			continue
		}
		if f.num != 2 && f.num != 4 && f.num != 5 {
			continue
		}
		sub, err := fields(f.b)
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		switch f.num {
		case 2:
			samples = append(samples, decodeSample(sub))
		case 4:
			id, fns, err := decodeLocation(sub)
			if err != nil {
				return fmt.Errorf("profile: %w", err)
			}
			locFuncs[id] = fns
		case 5:
			id, name := decodeFunction(sub)
			funcName[id] = name
		}
	}

	for _, s := range samples {
		pkg := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return fmt.Errorf("profile: function name index %d out of range", idx)
				}
				if p, ok := xlfPackage(strs[idx]); ok {
					pkg = p
					break stack
				}
			}
		}
		l.samples[pkg] += s.count
		l.total += s.count
	}
	return nil
}

type sample struct {
	locs  []uint64
	count int64
}

func decodeSample(fs []field) sample {
	var s sample
	var values []uint64
	for _, f := range fs {
		switch f.num {
		case 1:
			s.locs = append(s.locs, f.varints()...)
		case 2:
			values = append(values, f.varints()...)
		}
	}
	if len(values) > 0 {
		s.count = int64(values[0])
	}
	return s
}

// decodeLocation returns a location's id and the function ids of its
// lines, innermost inlined frame first.
func decodeLocation(fs []field) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	for _, f := range fs {
		switch {
		case f.num == 1 && f.wire == wireVarint:
			id = f.v
		case f.num == 4 && f.wire == wireBytes:
			line, err := fields(f.b)
			if err != nil {
				return 0, nil, err
			}
			for _, lf := range line {
				if lf.num == 1 && lf.wire == wireVarint {
					fns = append(fns, lf.v)
				}
			}
		}
	}
	return id, fns, nil
}

// decodeFunction returns a function's id and the string-table index of
// its name.
func decodeFunction(fs []field) (id, name uint64) {
	for _, f := range fs {
		if f.wire != wireVarint {
			continue
		}
		switch f.num {
		case 1:
			id = f.v
		case 2:
			name = f.v
		}
	}
	return id, name
}

// xlfPackage maps a profile function name to its xlf package:
// "xlf/internal/core.(*Core).evaluate" -> "core", "xlf.New" -> "xlf".
func xlfPackage(fn string) (string, bool) {
	if strings.HasPrefix(fn, "xlf.") {
		return "xlf", true
	}
	rest, ok := strings.CutPrefix(fn, "xlf/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexByte(rest, '.'); i > 0 {
		rest = rest[:i]
	}
	return rest, true
}

// Protobuf wire types used by profile.proto.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("truncated protobuf")

// field is one decoded protobuf field: a varint in v, or the raw bytes of
// a length-delimited field in b.
type field struct {
	num, wire int
	v         uint64
	b         []byte
}

// varints returns the field's values whether it was written as a single
// varint or as a packed repeated field. Malformed packed bytes end the
// list early.
func (f field) varints() []uint64 {
	if f.wire == wireVarint {
		return []uint64{f.v}
	}
	var out []uint64
	for p := f.b; len(p) > 0; {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			break
		}
		out = append(out, v)
		p = p[n:]
	}
	return out
}

// fields splits one protobuf message into its fields; fixed-width fields
// are skipped.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			if f.v, n = binary.Uvarint(b); n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case wireBytes:
			size, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < size {
				return nil, errTruncated
			}
			f.b = b[n : n+int(size)]
			b = b[n+int(size):]
		case wire64:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
			continue
		case wire32:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
			continue
		default:
			return nil, fmt.Errorf("unsupported protobuf wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}
