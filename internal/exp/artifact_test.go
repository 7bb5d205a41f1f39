package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func sampleResult(id string) *Result {
	r := &Result{ID: id, Title: "sample " + id, Output: "table for " + id + "\n"}
	r.num("metric_a", 1.5)
	r.num("metric_b", 0)
	return r
}

func sampleMeta() RunMeta { return RunMeta{Seed: 1, Clock: ClockStep} }

// TestArtifactRoundTrip writes artifacts for a result set and decodes
// them back unchanged.
func TestArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	results := []*Result{sampleResult("E1"), sampleResult("T3")}
	paths, err := WriteArtifacts(dir, results, sampleMeta())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("wrote %d paths, want 2", len(paths))
	}
	if want := ArtifactPath(dir, "E1"); paths[0] != want {
		t.Errorf("path = %q, want %q", paths[0], want)
	}
	if filepath.Base(paths[1]) != "BENCH_T3.json" {
		t.Errorf("artifact name = %q, want BENCH_T3.json", filepath.Base(paths[1]))
	}

	buf, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var a Artifact
	if err := json.Unmarshal(buf, &a); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.ID != "E1" || a.Schema != ArtifactSchema || a.Seed != 1 || a.Clock != ClockStep {
		t.Errorf("metadata lost: %+v", a)
	}
	if a.Numbers["metric_a"] != 1.5 {
		t.Errorf("numbers lost: %v", a.Numbers)
	}
	// The hash commits to the rendered section, so two identical runs
	// produce identical artifacts.
	b := NewArtifact(sampleResult("E1"), sampleMeta())
	if a.OutputSHA256 != b.OutputSHA256 || a.OutputBytes != b.OutputBytes {
		t.Errorf("hash not reproducible: %s vs %s", a.OutputSHA256, b.OutputSHA256)
	}
}

// TestArtifactSchemaFields pins the documented v2 JSON schema: exactly
// these keys, so no worker count or host timing creeps back into the
// byte-compared artifacts.
func TestArtifactSchemaFields(t *testing.T) {
	buf, err := json.Marshal(NewArtifact(sampleResult("E2"), sampleMeta()))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{"clock", "id", "numbers", "output_bytes", "output_sha256", "schema", "seed", "title"}
	if !slices.Equal(keys, want) {
		t.Errorf("artifact keys = %v, want %v", keys, want)
	}
	if m["schema"] != "xlf-bench/v2" {
		t.Errorf("schema tag = %v", m["schema"])
	}
}

// TestArtifactValidate covers the rejection paths for corrupt artifacts.
func TestArtifactValidate(t *testing.T) {
	good := func() *Artifact { return NewArtifact(sampleResult("E1"), sampleMeta()) }
	cases := []struct {
		name  string
		mut   func(*Artifact)
		wants string
	}{
		{"wrong schema", func(a *Artifact) { a.Schema = "xlf-bench/v0" }, "schema"},
		{"missing id", func(a *Artifact) { a.ID = "" }, "missing id"},
		{"bad hash", func(a *Artifact) { a.OutputSHA256 = "abc" }, "sha256"},
		{"bad clock", func(a *Artifact) { a.Clock = "sundial" }, "clock"},
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}
	for _, tc := range cases {
		a := good()
		tc.mut(a)
		err := a.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wants) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wants)
		}
	}
}
