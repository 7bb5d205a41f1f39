package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xlf/internal/exp"
)

// write creates an artifact dir from synthetic results.
func write(t *testing.T, meta exp.RunMeta, results ...*exp.Result) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := exp.WriteArtifacts(dir, results, meta); err != nil {
		t.Fatal(err)
	}
	return dir
}

func result(id, output string, wallNS int64, nums map[string]float64) *exp.Result {
	r := &exp.Result{ID: id, Title: "t " + id, Output: output, Numbers: nums,
		Telemetry: &exp.Telemetry{WallNS: wallNS, AllocBytes: -1, Allocs: -1}}
	return r
}

func stepMeta() exp.RunMeta { return exp.RunMeta{Seed: 1, Parallel: 1, Clock: exp.ClockStep} }

func TestCompareIdentical(t *testing.T) {
	a := write(t, stepMeta(),
		result("E1", "out1\n", 1e6, map[string]float64{"f1": 0.9}),
		result("E2", "out2\n", 2e6, map[string]float64{"recall": 1}))
	b := write(t, stepMeta(),
		result("E1", "out1\n", 1.1e6, map[string]float64{"f1": 0.9}),
		result("E2", "out2\n", 2.1e6, map[string]float64{"recall": 1}))
	var out strings.Builder
	if code := run([]string{"-base", a, "-new", b}, &out); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestCompareFlagsNumberDrift(t *testing.T) {
	a := write(t, stepMeta(), result("E1", "out\n", 1e6, map[string]float64{"f1": 0.90}))
	b := write(t, stepMeta(), result("E1", "out\n", 1e6, map[string]float64{"f1": 0.45}))
	var out strings.Builder
	if code := run([]string{"-base", a, "-new", b}, &out); code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "f1 drifted") {
		t.Errorf("output:\n%s", out.String())
	}
	// Within tolerance the same drift passes.
	out.Reset()
	if code := run([]string{"-base", a, "-new", b, "-tolerance", "0.9"}, &out); code != 0 {
		t.Errorf("tolerant run exit %d; output:\n%s", code, out.String())
	}
}

// TestCompareGatesEveryNumber: no key prefix is exempt. A baseline
// number the candidate lacks is a regression, whatever its name.
func TestCompareGatesEveryNumber(t *testing.T) {
	a := write(t, stepMeta(), result("E10", "out\n", 1e6,
		map[string]float64{"events_total": 100, "telemetry.detected": 3}))
	b := write(t, stepMeta(), result("E10", "out\n", 1e6,
		map[string]float64{"events_total": 100}))
	var out strings.Builder
	if code := run([]string{"-base", a, "-new", b}, &out); code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), `number "telemetry.detected" missing`) {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestCompareFlagsMissingAndOutputChange(t *testing.T) {
	a := write(t, stepMeta(),
		result("E1", "out\n", 1e6, nil),
		result("E2", "two\n", 1e6, nil))
	b := write(t, stepMeta(), result("E1", "CHANGED\n", 1e6, nil))
	var out strings.Builder
	if code := run([]string{"-base", a, "-new", b}, &out); code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "E2: missing") {
		t.Errorf("missing experiment not reported:\n%s", s)
	}
	if !strings.Contains(s, "step-clock output hash changed") {
		t.Errorf("output change not reported:\n%s", s)
	}
}

func TestCompareWallClockOutputIsNote(t *testing.T) {
	wall := exp.RunMeta{Seed: 1, Parallel: 1, Clock: exp.ClockWall}
	a := write(t, wall, result("T3", "12.3 MB/s\n", 1e6, nil))
	b := write(t, wall, result("T3", "12.9 MB/s\n", 1e6, nil))
	var out strings.Builder
	if code := run([]string{"-base", a, "-new", b}, &out); code != 0 {
		t.Fatalf("wall-clock output drift should not be a regression; exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "output differs (wall-clock run; expected)") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestCompareFlagsWallSlowdown(t *testing.T) {
	a := write(t, stepMeta(), result("E1", "out\n", 1e6, nil))
	b := write(t, stepMeta(), result("E1", "out\n", 5e6, nil))
	var out strings.Builder
	if code := run([]string{"-base", a, "-new", b}, &out); code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "wall time 5.00x baseline") {
		t.Errorf("output:\n%s", out.String())
	}
	// A generous wall tolerance turns it back into a pass.
	out.Reset()
	if code := run([]string{"-base", a, "-new", b, "-wall-tolerance", "5"}, &out); code != 0 {
		t.Errorf("tolerant run exit %d; output:\n%s", code, out.String())
	}
}

func TestCompareNewExperimentIsNote(t *testing.T) {
	a := write(t, stepMeta(), result("E1", "out\n", 1e6, nil))
	b := write(t, stepMeta(),
		result("E1", "out\n", 1e6, nil),
		result("E9", "new\n", 1e6, nil))
	var out strings.Builder
	if code := run([]string{"-base", a, "-new", b}, &out); code != 0 {
		t.Fatalf("exit %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "E9: new experiment") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestCompareUsageErrors(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-base", "only"}, &out); code != 2 {
		t.Errorf("missing -new: exit %d", code)
	}
	if code := run([]string{"-base", t.TempDir(), "-new", t.TempDir()}, &out); code != 2 {
		t.Errorf("empty baseline dir: exit %d", code)
	}
	if code := run([]string{"-bogus"}, &out); code != 2 {
		t.Errorf("bad flag: exit %d", code)
	}
}

func TestCompareCorruptArtifact(t *testing.T) {
	a := write(t, stepMeta(), result("E1", "out\n", 1e6, nil))
	b := write(t, stepMeta(), result("E1", "out\n", 1e6, nil))
	if err := os.WriteFile(filepath.Join(b, "BENCH_Ez.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := run([]string{"-base", a, "-new", b}, &out); code != 2 {
		t.Errorf("corrupt candidate artifact: exit %d, want 2", code)
	}
	if code := run([]string{"-base", b, "-new", a}, &out); code != 2 {
		t.Errorf("corrupt baseline artifact: exit %d, want 2", code)
	}
}

func TestCompareMissingDir(t *testing.T) {
	a := write(t, stepMeta(), result("E1", "out\n", 1e6, nil))
	gone := filepath.Join(t.TempDir(), "never-written")
	var out strings.Builder
	// A nonexistent baseline dir has no artifacts: a usage-level error,
	// not a silent "no regressions".
	if code := run([]string{"-base", gone, "-new", a}, &out); code != 2 {
		t.Errorf("missing baseline dir: exit %d, want 2", code)
	}
}

// TestCompareEmptyNewSet pins that an empty candidate set reports every
// baseline experiment as missing instead of passing vacuously.
func TestCompareEmptyNewSet(t *testing.T) {
	a := write(t, stepMeta(),
		result("E1", "out\n", 1e6, nil),
		result("E2", "two\n", 1e6, nil))
	var out strings.Builder
	if code := run([]string{"-base", a, "-new", t.TempDir()}, &out); code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	s := out.String()
	for _, id := range []string{"E1", "E2"} {
		if !strings.Contains(s, id+": missing") {
			t.Errorf("%s not reported missing:\n%s", id, s)
		}
	}
	if !strings.Contains(s, "2 regression(s)") {
		t.Errorf("want 2 regressions:\n%s", s)
	}
}

// TestCompareToleranceBoundary pins the comparison operators at the
// thresholds: drift exactly at -tolerance passes (strictly-greater
// gates), one notch tighter fails. The 0.75/0.25 values are exact in
// binary, so the equality is not at the mercy of rounding.
func TestCompareToleranceBoundary(t *testing.T) {
	a := write(t, stepMeta(), result("E1", "out\n", 1e6, map[string]float64{"f1": 1.0}))
	b := write(t, stepMeta(), result("E1", "out\n", 1.25e6, map[string]float64{"f1": 0.75}))
	var out strings.Builder
	if code := run([]string{"-base", a, "-new", b, "-tolerance", "0.25", "-wall-tolerance", "0.25"}, &out); code != 0 {
		t.Errorf("at-threshold drift should pass; exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-base", a, "-new", b, "-tolerance", "0.2", "-wall-tolerance", "0.25"}, &out); code != 1 {
		t.Errorf("above-threshold number drift should fail; exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-base", a, "-new", b, "-tolerance", "0.25", "-wall-tolerance", "0.2"}, &out); code != 1 {
		t.Errorf("above-threshold wall slowdown should fail; exit %d:\n%s", code, out.String())
	}
}
