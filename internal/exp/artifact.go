package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ArtifactSchema is the version tag every BENCH_<id>.json carries. Bump it
// whenever a field changes meaning. v2 carries only content that is a
// function of the seed and the clock family: no worker count and no
// host timing, so step-clock artifacts compare byte for byte.
const ArtifactSchema = "xlf-bench/v2"

// ClockWall and ClockStep name the two clock families an artifact can be
// produced under. Only step-clock artifacts are byte-identical across
// runs; under the wall clock, the numbers and output of the experiments
// that time a section on the env clock (T3, E4) vary from run to run.
const (
	ClockWall = "wall"
	ClockStep = "step"
)

// RunMeta describes the run that produced a set of artifacts. The worker
// count is deliberately absent: it cannot change an artifact's content.
type RunMeta struct {
	Seed  int64  `json:"seed"`
	Clock string `json:"clock"`
}

// Artifact is the machine-readable record of one experiment run: the
// BENCH_<id>.json files bench/seed pins. The rendered output itself is
// summarized by hash and length; the headline numbers are carried in
// full. Host timing belongs to bench/_perf, not here.
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
	}
}

// Validate checks the documented schema invariants; WriteArtifacts runs
// it on every artifact before writing.
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
