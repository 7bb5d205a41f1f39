package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ArtifactSchema is the version tag every BENCH_<id>.json carries. Bump it
// whenever a field changes meaning; readers (scripts/bench-compare, CI)
// refuse artifacts from a schema they do not understand.
const ArtifactSchema = "xlf-bench/v1"

// ClockWall and ClockStep name the two clock families an artifact can be
// produced under. Only step-clock artifacts promise byte-identical output
// hashes across runs; wall-clock artifacts carry real throughput numbers.
const (
	ClockWall = "wall"
	ClockStep = "step"
)

// RunMeta describes the run that produced a set of artifacts.
type RunMeta struct {
	Seed     int64  `json:"seed"`
	Parallel int    `json:"parallel"`
	Clock    string `json:"clock"`
}

// Artifact is the machine-readable record of one experiment run: the
// BENCH_<id>.json contract that perf PRs are judged against. The rendered
// output itself is summarized by hash (byte-identity checks) and length;
// the headline numbers and telemetry are carried in full.
type Artifact struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	Title  string `json:"title"`
	RunMeta
	// Numbers are the experiment's headline metrics (Result.Numbers).
	Numbers map[string]float64 `json:"numbers,omitempty"`
	// OutputSHA256 is the hex SHA-256 of the rendered report section;
	// under -clock step it is stable across machines and parallelism.
	OutputSHA256 string `json:"output_sha256"`
	OutputBytes  int    `json:"output_bytes"`
	// Telemetry is Run's measurement of this run (wall time
	// always; allocation deltas only when the run was sequential).
	Telemetry *Telemetry `json:"telemetry,omitempty"`
}

// NewArtifact captures one result under the given run metadata.
func NewArtifact(r *Result, meta RunMeta) *Artifact {
	out := r.String()
	sum := sha256.Sum256([]byte(out))
	return &Artifact{
		Schema:       ArtifactSchema,
		ID:           r.ID,
		Title:        r.Title,
		RunMeta:      meta,
		Numbers:      r.Numbers,
		OutputSHA256: hex.EncodeToString(sum[:]),
		OutputBytes:  len(out),
		Telemetry:    r.Telemetry,
	}
}

// Validate checks the documented schema invariants. Readers call it on
// every loaded file so a hand-edited or truncated artifact fails loudly.
func (a *Artifact) Validate() error {
	switch {
	case a.Schema != ArtifactSchema:
		return fmt.Errorf("artifact %q: schema %q, want %q", a.ID, a.Schema, ArtifactSchema)
	case a.ID == "":
		return fmt.Errorf("artifact missing id")
	case len(a.OutputSHA256) != sha256.Size*2:
		return fmt.Errorf("artifact %q: output_sha256 %q is not a sha256 hex digest", a.ID, a.OutputSHA256)
	case a.OutputBytes < 0:
		return fmt.Errorf("artifact %q: negative output_bytes %d", a.ID, a.OutputBytes)
	case a.Clock != ClockWall && a.Clock != ClockStep:
		return fmt.Errorf("artifact %q: unknown clock %q", a.ID, a.Clock)
	case a.Parallel < 1:
		return fmt.Errorf("artifact %q: parallel %d < 1", a.ID, a.Parallel)
	case a.Telemetry != nil && a.Telemetry.WallNS < 0:
		return fmt.Errorf("artifact %q: negative wall_ns %d", a.ID, a.Telemetry.WallNS)
	}
	return nil
}

// ArtifactPath returns the canonical file name for an experiment ID inside
// dir: BENCH_<ID>.json.
func ArtifactPath(dir, id string) string {
	return filepath.Join(dir, "BENCH_"+strings.ToUpper(id)+".json")
}

// WriteArtifacts serializes one artifact per result into dir (created if
// absent) and returns the paths written, in result order.
func WriteArtifacts(dir string, results []*Result, meta RunMeta) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bench artifacts: %w", err)
	}
	paths := make([]string, 0, len(results))
	for _, r := range results {
		a := NewArtifact(r, meta)
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("bench artifacts: %w", err)
		}
		buf, err := json.MarshalIndent(a, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("bench artifacts: %w", err)
		}
		p := ArtifactPath(dir, r.ID)
		if err := os.WriteFile(p, append(buf, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("bench artifacts: %w", err)
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// ReadArtifact loads and validates one artifact file.
func ReadArtifact(path string) (*Artifact, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench artifact: %w", err)
	}
	var a Artifact
	if err := json.Unmarshal(buf, &a); err != nil {
		return nil, fmt.Errorf("bench artifact %s: %w", path, err)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("bench artifact %s: %w", path, err)
	}
	return &a, nil
}

// ReadArtifactDir loads every BENCH_*.json in dir, keyed and sorted by
// experiment ID.
func ReadArtifactDir(dir string) (map[string]*Artifact, []string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("bench artifacts: %w", err)
	}
	byID := make(map[string]*Artifact, len(matches))
	ids := make([]string, 0, len(matches))
	for _, p := range matches {
		a, err := ReadArtifact(p)
		if err != nil {
			return nil, nil, err
		}
		if _, dup := byID[a.ID]; dup {
			return nil, nil, fmt.Errorf("bench artifacts: duplicate id %q in %s", a.ID, dir)
		}
		byID[a.ID] = a
		ids = append(ids, a.ID)
	}
	sort.Strings(ids)
	return byID, ids, nil
}
