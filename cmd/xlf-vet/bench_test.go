package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// vetSeed mirrors bench/seed/VET.json, the committed wall-time budget
// for a full-module run.
type vetSeed struct {
	Schema    string  `json:"schema"`
	WallNS    int64   `json:"wall_ns"`
	Tolerance float64 `json:"tolerance"`
}

// TestVetWarmWallBudget is the growth guard for analyzer cost: a
// full-module run in a warm process (one untimed run first fills the
// page cache and the heap) must finish within tolerance (1.25x) of the
// budget committed in bench/seed/VET.json. Wall-clock timing flaps on
// shared machines, so the guard only runs when check.sh/CI opt in with
// XLF_VET_WALL_GUARD=1, and it takes the best of three runs to shed
// scheduler noise.
func TestVetWarmWallBudget(t *testing.T) {
	if os.Getenv("XLF_VET_WALL_GUARD") != "1" {
		t.Skip("set XLF_VET_WALL_GUARD=1 to run the wall-time budget guard")
	}
	root := repoRoot(t)
	data, err := os.ReadFile(filepath.Join(root, "bench", "seed", "VET.json"))
	if err != nil {
		t.Fatal(err)
	}
	var seed vetSeed
	if err := json.Unmarshal(data, &seed); err != nil {
		t.Fatalf("bad bench/seed/VET.json: %v", err)
	}
	if seed.Schema != "xlf-vet-wall/v2" || seed.WallNS <= 0 || seed.Tolerance < 1 {
		t.Fatalf("implausible budget: %+v", seed)
	}

	vet := func() time.Duration {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args := []string{"-root", root, "-baseline", filepath.Join(root, "vet-baseline.json"), "./..."}
		start := time.Now()
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
		}
		return time.Since(start)
	}

	vet() // warm-up, never timed
	runs := []time.Duration{vet(), vet(), vet()}
	best := slices.Min(runs)
	budget := time.Duration(float64(seed.WallNS) * seed.Tolerance)
	t.Logf("vet runs %v: best = %v, budget = %v (%.2fx of %v)",
		runs, best, budget, seed.Tolerance, time.Duration(seed.WallNS))
	if best > budget {
		t.Fatalf("full-module vet took %v, over the %v budget — either make the analyzers cheaper or consciously re-record bench/seed/VET.json", best, budget)
	}
}
