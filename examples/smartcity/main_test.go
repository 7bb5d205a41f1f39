package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xlf/internal/testbed"
)

// TestRunReplays runs a small city with the attack timeline twice: at a
// fixed seed it must print the same bytes and write the same
// xlf-metrics/v1 artifact both times, with every injected attack
// detected.
func TestRunReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	replay := func() (string, []byte) {
		t.Helper()
		city, err := testbed.NewCity(testbed.CityConfig{
			Seed:           3,
			Devices:        2000,
			ReportEvery:    10 * time.Second,
			Horizon:        30 * time.Second,
			RollupInterval: time.Second,
			Attacks:        testbed.DefaultCityAttacks(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := run(&out, city, 3, path); err != nil {
			t.Fatal(err)
		}
		artifact, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), artifact
	}
	out1, art1 := replay()
	out2, art2 := replay()
	if out1 == "" || out1 != out2 {
		t.Errorf("replay printed different output:\n%s\n---\n%s", out1, out2)
	}
	if len(art1) == 0 || !bytes.Equal(art1, art2) {
		t.Error("replay wrote a different telemetry artifact")
	}
	if strings.Contains(out1, "WARNING") {
		t.Errorf("an injected attack went undetected:\n%s", out1)
	}
}
