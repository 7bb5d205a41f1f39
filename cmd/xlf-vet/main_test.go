package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot walks up to the module root so tests can vet the real tree.
func repoRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestRepoTipIsClean is the acceptance gate: xlf-vet over the whole
// module exits 0 with no output.
func TestRepoTipIsClean(t *testing.T) {
	root := repoRoot(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", root, "-baseline", filepath.Join(root, "vet-baseline.json"), "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run printed findings:\n%s", stdout.String())
	}
}

func TestRepoTipJSONIsEmpty(t *testing.T) {
	root := repoRoot(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", root, "-baseline", filepath.Join(root, "vet-baseline.json"), "-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, stderr.String())
	}
	var findings []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout.String())
	}
	if len(findings) != 0 {
		t.Errorf("want no findings, got %v", findings)
	}
}

// seedModule writes a throwaway module named "xlf" (so the repo's rule
// configuration applies) containing one violation of each rule.
func seedModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module xlf\n\ngo 1.22\n")
	// layercheck: the device layer reaching into the service layer. The
	// package also hosts the plaintextescape source constructor.
	write("internal/device/device.go", `package device

import "xlf/internal/service"

var _ = service.Cloud{}

func NewPayload(id, kind, body string) []byte {
	return []byte(kind + ":" + id + ":" + body)
}
`)
	// secretleak: raw token material formatted into an error.
	write("internal/service/service.go", `package service

import (
	"fmt"

	"xlf/internal/xauth"
)

type Cloud struct{}

func (c *Cloud) Reject(s *xauth.Signer) error {
	return fmt.Errorf("bad token %v", s.Issue("u1"))
}
`)
	// The network-layer sink for plaintextescape.
	write("internal/netsim/netsim.go", `package netsim

type Packet struct{ Payload []byte }

type Network struct{}

func (n *Network) Send(p *Packet) {}
`)
	// plaintextescape: an unsealed device payload crossing into netsim.
	write("internal/testbed/testbed.go", `package testbed

import (
	"xlf/internal/device"
	"xlf/internal/netsim"
)

func Keepalive(n *netsim.Network) {
	n.Send(&netsim.Packet{Payload: device.NewPayload("d1", "keepalive", "")})
}
`)
	// metrics is outside the deterministic set: its clock read is only
	// reachable through the call graph.
	write("internal/metrics/metrics.go", `package metrics

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)
	// detflow: the reproduction contract broken through the cross-package
	// helper — invisible to the per-file determinism rule.
	write("internal/exp/exp.go", `package exp

import "xlf/internal/metrics"

func Tick() int64 { return metrics.Stamp() }
`)
	// determinism: a wall-clock read inside the simulator; globalmut: a
	// package-level write; maporder: keys collected in iteration order.
	write("internal/sim/sim.go", `package sim

import "time"

func Now() time.Time { return time.Now() }

var seen = map[string]bool{}

func Mark(k string) { seen[k] = true }

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`)
	// pairing: a mutex locked with no unlock on the return path.
	write("internal/core/core.go", `package core

import "sync"

type Engine struct {
	mu sync.Mutex
}

func (e *Engine) Lock() { e.mu.Lock() }
`)
	// errdrop: a discarded verification error in xauth. Signer.Issue is
	// the secretleak source consumed by the service package; keep this
	// package's own findings at exactly the one errdrop (TestJSONFindings
	// counts on it).
	write("internal/xauth/xauth.go", `package xauth

import "errors"

type Signer struct{}

func (s *Signer) Issue(subject string) string { return subject }

func Verify() error { return errors.New("bad") }

func Use() { Verify() }
`)
	// dpi hosts the CFG-family violations: cryptomisuse (a hardcoded
	// short HMAC key and a variable-time tag compare, the latter carrying
	// a suggested fix) and a dead store.
	write("internal/dpi/dpi.go", `package dpi

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
)

func Verify(msg, tag []byte) bool {
	m := hmac.New(sha256.New, []byte("k"))
	m.Write(msg)
	return bytes.Equal(m.Sum(nil), tag)
}

func Classify(b []byte) int {
	n := 0
	n = len(b)
	return n
}
`)
	return root
}

// TestSeededViolationsFail verifies each rule fires with a file:line:
// [rule] diagnostic and a non-zero exit.
func TestSeededViolationsFail(t *testing.T) {
	root := seedModule(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", root, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []struct{ file, rule string }{
		{"internal/device/device.go", "layercheck"},
		{"internal/sim/sim.go", "determinism"},
		{"internal/exp/exp.go", "detflow"},
		{"internal/sim/sim.go", "globalmut"},
		{"internal/sim/sim.go", "maporder"},
		{"internal/xauth/xauth.go", "errdrop"},
		{"internal/testbed/testbed.go", "plaintextescape"},
		{"internal/service/service.go", "secretleak"},
		{"internal/core/core.go", "pairing"},
		{"internal/dpi/dpi.go", "cryptomisuse"},
		{"internal/dpi/dpi.go", "deadstore"},
	} {
		re := regexp.MustCompile(regexp.QuoteMeta(want.file) + `:\d+: \[` + want.rule + `\]`)
		if !re.MatchString(out) {
			t.Errorf("missing %s diagnostic for %s in output:\n%s", want.rule, want.file, out)
		}
	}
	// The seeded service/ package is reachable but clean; make sure noise
	// stays proportional (one finding per seeded violation, none extra
	// beyond the "not in table" entries for the temp module's packages).
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr missing findings summary: %s", stderr.String())
	}
}

// TestDisableDropsRule shows -disable removes exactly that rule.
func TestDisableDropsRule(t *testing.T) {
	root := seedModule(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", root, "-disable", "cryptomisuse,deadstore,determinism,detflow,errdrop,globalmut,layercheck,maporder,pairing,plaintextescape,secretleak", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d with all rules disabled, want 0\n%s%s", code, stdout.String(), stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-root", root, "-disable", "errdrop", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if strings.Contains(stdout.String(), "[errdrop]") {
		t.Errorf("disabled rule still reported:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "[determinism]") {
		t.Errorf("remaining rules missing:\n%s", stdout.String())
	}
}

// TestUnknownRuleRejected: a typo'd rule name, and the rules, family
// alias and flag the suite no longer has, are usage errors rather than
// silently narrowed runs.
func TestUnknownRuleRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-disable", "nope"}, "unknown rule"},
		{[]string{"-only", "shardsafe"}, "unknown rule"},
		{[]string{"-disable", "lockcheck"}, "unknown rule"},
		{[]string{"-only", "atomicmix"}, "unknown rule"},
		{[]string{"-disable", "unreachable"}, "unknown rule"},
		{[]string{"-cache-dir", "x"}, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-root", repoRoot(t)}, tc.args...)
		if code := run(append(args, "./..."), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr = %q, want %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestPackagePatterns narrows the run to a subtree.
func TestPackagePatterns(t *testing.T) {
	root := seedModule(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", root, "./internal/sim"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[determinism]") {
		t.Errorf("sim-only run missing determinism finding:\n%s", out)
	}
	for _, other := range []string{"[layercheck]", "[pairing]", "[errdrop]"} {
		if strings.Contains(out, other) {
			t.Errorf("sim-only run leaked %s findings:\n%s", other, out)
		}
	}
}

// TestNoMatchPatternRejected: a typo'd pattern must not pass vacuously.
func TestNoMatchPatternRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", repoRoot(t), "./does/not/exist"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "matched no packages") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestJSONFindings checks the machine-readable shape on a dirty module.
func TestJSONFindings(t *testing.T) {
	root := seedModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", root, "-json", "./internal/xauth"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Rule    string `json:"rule"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout.String())
	}
	if len(findings) != 1 || findings[0].Rule != "errdrop" || findings[0].Line == 0 {
		t.Errorf("findings = %+v, want one errdrop entry with a line", findings)
	}
}

// checkGolden compares got against testdata/<name>, rewriting the file
// when UPDATE_GOLDEN=1 is set in the environment.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (UPDATE_GOLDEN=1 regenerates)\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestJSONGolden pins the machine-readable output byte-for-byte: finding
// paths are module-relative, so the seeded module renders identically
// regardless of the temp directory it lives in.
func TestJSONGolden(t *testing.T) {
	root := seedModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", root, "-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr.String())
	}
	checkGolden(t, "seed.json", stdout.Bytes())
}

// TestSARIFGolden pins the SARIF 2.1.0 shape and round-trips it through
// the JSON decoder as a structural validity check.
func TestSARIFGolden(t *testing.T) {
	root := seedModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", root, "-sarif", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr.String())
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string           `json:"name"`
					Rules []map[string]any `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("bad SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("schema/version = %q / %q, want SARIF 2.1.0", log.Schema, log.Version)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "xlf-vet" {
		t.Fatalf("want one run from driver xlf-vet, got %+v", log.Runs)
	}
	rules := log.Runs[0].Tool.Driver.Rules
	if len(rules) != 14 {
		t.Errorf("rules array has %d entries, want all 14 configured rules", len(rules))
	}
	for _, r := range log.Runs[0].Results {
		if r.Level != "error" {
			t.Errorf("result %s has level %q, want error", r.RuleID, r.Level)
		}
		if r.RuleIndex < 0 || r.RuleIndex >= len(rules) || rules[r.RuleIndex]["id"] != r.RuleID {
			t.Errorf("result %s: ruleIndex %d does not point at its rule", r.RuleID, r.RuleIndex)
		}
	}
	checkGolden(t, "seed.sarif", stdout.Bytes())
}

// TestSARIFAndJSONExclusive: the two machine formats cannot be combined.
func TestSARIFAndJSONExclusive(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-sarif", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "mutually exclusive") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestBaselineRoundTrip freezes the seeded findings, shows the next run
// is clean under the baseline, then proves a NEW violation still fails.
func TestBaselineRoundTrip(t *testing.T) {
	root := seedModule(t)
	base := filepath.Join(t.TempDir(), "baseline.json")

	// -write-baseline requires -baseline.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", root, "-write-baseline", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("write-baseline without -baseline: exit %d, want 2", code)
	}

	// Freeze the current findings.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "-write-baseline", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("write-baseline: exit %d, want 0\n%s", code, stderr.String())
	}

	// Same tree, baseline applied: clean exit, suppression reported.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("baselined run: exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("baselined run printed findings:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "suppressed by baseline") {
		t.Errorf("stderr missing suppression note: %q", stderr.String())
	}

	// Introduce a fresh violation: only it must surface.
	if err := os.WriteFile(filepath.Join(root, "internal/sim/extra.go"), []byte(`package sim

import "time"

func Later() time.Time { return time.Now().Add(time.Second) }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("new violation under baseline: exit %d, want 1\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "internal/sim/extra.go") || !strings.Contains(out, "[determinism]") {
		t.Errorf("new violation not reported:\n%s", out)
	}
	if strings.Count(out, "\n") != 1 {
		t.Errorf("want exactly the one new finding, got:\n%s", out)
	}
}

// TestBaselineStaleDetectionAndPrune: fixing a baselined violation turns
// its waiver stale; a full-module run warns about it, and
// -prune-baseline rewrites the file without it while keeping the live
// entries (and their justifications).
func TestBaselineStaleDetectionAndPrune(t *testing.T) {
	root := seedModule(t)
	base := filepath.Join(t.TempDir(), "baseline.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", root, "-baseline", base, "-write-baseline", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("write-baseline: exit %d\n%s", code, stderr.String())
	}

	// -prune-baseline guards: it needs -baseline and a full-module run.
	stderr.Reset()
	if code := run([]string{"-root", root, "-prune-baseline", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("prune without -baseline: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "-prune-baseline", "./internal/sim"}, &stdout, &stderr); code != 2 {
		t.Fatalf("prune on a narrowed run: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "full-module") {
		t.Errorf("stderr = %q", stderr.String())
	}

	// Fix the simulator's wall-clock read: its waiver is now stale, and
	// a full-module baselined run says so on stderr while staying clean.
	if err := os.WriteFile(filepath.Join(root, "internal/sim/sim.go"), []byte(`package sim

import "time"

func Now(c func() time.Time) time.Time { return c() }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("baselined run after fix: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "stale baseline waiver") || !strings.Contains(stderr.String(), "internal/sim/sim.go") {
		t.Errorf("stale waiver not reported:\n%s", stderr.String())
	}
	// A narrowed run must NOT cry stale over packages it skipped.
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "./internal/xauth"}, &stdout, &stderr); code != 0 {
		t.Fatalf("narrowed baselined run: exit %d\n%s", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "stale baseline waiver") {
		t.Errorf("narrowed run misreported staleness:\n%s", stderr.String())
	}

	// Prune, then: no warnings, still clean, surviving entries intact.
	before, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "-prune-baseline", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("prune: exit %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "pruned") {
		t.Errorf("stderr = %q", stderr.String())
	}
	after, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Errorf("prune did not shrink the baseline (%d -> %d bytes)", len(before), len(after))
	}
	if !bytes.Contains(after, []byte("errdrop")) {
		t.Errorf("live waivers lost in prune:\n%s", after)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("post-prune run: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if strings.Contains(stderr.String(), "stale baseline waiver") {
		t.Errorf("staleness survived the prune:\n%s", stderr.String())
	}
}

// TestStrictBaseline: -strict-baseline turns stale-waiver warnings into
// a failing exit, and refuses configurations where staleness cannot be
// decided (no baseline, or a narrowed run).
func TestStrictBaseline(t *testing.T) {
	root := seedModule(t)
	base := filepath.Join(t.TempDir(), "baseline.json")

	// The flag is meaningless without a baseline file.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", root, "-strict-baseline", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("strict without -baseline: exit %d, want 2\n%s", code, stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "-write-baseline", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("write-baseline: exit %d\n%s", code, stderr.String())
	}

	// Nothing stale: the strict run is as clean as the lenient one.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "-strict-baseline", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("strict run with live waivers: exit %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}

	// A narrowed run skips packages, so staleness cannot be decided.
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "-strict-baseline", "./internal/sim"}, &stdout, &stderr); code != 2 {
		t.Fatalf("strict on a narrowed run: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "full-module") {
		t.Errorf("stderr = %q", stderr.String())
	}

	// Fix the simulator's wall-clock read: its waiver goes stale, and the
	// strict run now fails where the lenient one only warns.
	if err := os.WriteFile(filepath.Join(root, "internal/sim/sim.go"), []byte(`package sim

import "time"

func Now(c func() time.Time) time.Time { return c() }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("lenient run with stale waiver: exit %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "-strict-baseline", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("strict run with stale waiver: exit %d, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "stale baseline waiver") || !strings.Contains(stderr.String(), "-prune-baseline") {
		t.Errorf("stderr = %q, want the strict stale-waiver failure", stderr.String())
	}

	// Pruning restores the strict gate.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "-prune-baseline", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("prune: exit %d\n%s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-root", root, "-baseline", base, "-strict-baseline", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("strict run after prune: exit %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}
}

// TestParallelDeterminism: the SARIF output is byte-identical at
// -parallel 1 and -parallel 8.
func TestParallelDeterminism(t *testing.T) {
	root := seedModule(t)
	sarif := func(parallel string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-root", root, "-sarif", "-parallel", parallel, "./..."}, &stdout, &stderr); code != 1 {
			t.Fatalf("-parallel %s: exit %d, want 1\n%s", parallel, code, stderr.String())
		}
		return stdout.String()
	}
	if sarif("1") != sarif("8") {
		t.Errorf("-parallel 8 output differs from -parallel 1")
	}
}

// TestFixAppliesMechanicalEdits: -fix rewrites the variable-time tag
// compare to hmac.Equal, prunes the orphaned bytes import, and leaves a
// tree where only the non-mechanical findings remain.
func TestFixAppliesMechanicalEdits(t *testing.T) {
	root := seedModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", root, "-fix", "./internal/dpi"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (findings are still reported in the fixing run)\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "applied") {
		t.Errorf("stderr missing fix report: %q", stderr.String())
	}
	src, err := os.ReadFile(filepath.Join(root, "internal/dpi/dpi.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(src, []byte("hmac.Equal(")) || bytes.Contains(src, []byte("bytes.Equal(")) {
		t.Errorf("tag compare not rewritten:\n%s", src)
	}
	if bytes.Contains(src, []byte(`"bytes"`)) {
		t.Errorf("orphaned bytes import not pruned:\n%s", src)
	}

	// Re-run without -fix: the compare finding is gone; the hardcoded
	// short key (not mechanically fixable) still fails the gate.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-root", root, "./internal/dpi"}, &stdout, &stderr); code != 1 {
		t.Fatalf("post-fix exit %d, want 1\n%s", code, stderr.String())
	}
	out := stdout.String()
	if strings.Contains(out, "compared with") {
		t.Errorf("compare finding survived the fix:\n%s", out)
	}
	if !strings.Contains(out, "[cryptomisuse]") {
		t.Errorf("short-key finding missing after fix:\n%s", out)
	}
}
