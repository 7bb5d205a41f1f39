package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"xlf/internal/lwc"
)

var sink uint64

func TestLedgerFoldsLWCLoop(t *testing.T) {
	l := newLedger()
	data := bytes.Repeat([]byte("firmware image "), 64)
	err := l.profile(func() error {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			for i := 0; i < 1000; i++ {
				sink += lwc.Sum64(data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.total < 10 {
		t.Fatalf("profile holds %d samples, want at least 10", l.total)
	}
	if got := l.share("lwc"); got < 0.8 {
		t.Errorf("lwc.cpu_share = %.2f, want >= 0.8 (samples %v)", got, l.samples)
	}
}

func TestXLFPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"xlf/internal/core.(*Core).evaluate":      "core",
		"xlf/internal/lwc.Sum64":                  "lwc",
		"xlf/internal/sim.(*Kernel).Every.func1":  "sim",
		"xlf.(*System).attest":                    "xlf",
		"xlf.New.func3":                           "xlf",
		"runtime.mallocgc":                        "",
		"main.(*meter).run":                       "",
		"xlfother/internal/core.(*Core).evaluate": "",
	} {
		got, ok := xlfPackage(fn)
		if got != want || ok != (want != "") {
			t.Errorf("xlfPackage(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

// TestTracingDoesNotPerturb pins what the traced run promises: hook timers,
// the CPU profile and the replays leave every count and quality number
// unchanged, while a different seed changes them.
func TestTracingDoesNotPerturb(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			round := workloads[name]
			plain, err := round(1, tinyScale, &meter{})
			if err != nil {
				t.Fatal(err)
			}
			p := newProbes()
			traced, err := round(1, tinyScale, &meter{probes: p, ledger: newLedger()})
			if err != nil {
				t.Fatal(err)
			}
			if traced != plain {
				t.Errorf("traced round computed\n%+v\nuntraced\n%+v", traced, plain)
			}
			if name == "city" {
				// The city's seed only staggers first reports inside one
				// period: every count and the bucketed detection latencies
				// are the same for any seed.
				return
			}
			other, err := round(2, tinyScale, &meter{})
			if err != nil {
				t.Fatal(err)
			}
			if other == plain {
				t.Errorf("seeds 1 and 2 computed the same outcome %+v", plain)
			}
		})
	}
}

// TestBenchmarkMetricsEmitted runs every workload BENCHMARK.json names
// at tiny scale, untraced and traced, and checks that each metric it
// declares is reported with its unit in the JSON result line.
func TestBenchmarkMetricsEmitted(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bench.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := strings.Join(workloadNames(), ","); got != strings.Join(declared, ",") {
		t.Fatalf("harness workloads %s, BENCHMARK.json declares %s", got, strings.Join(declared, ","))
	}

	for _, name := range declared {
		for _, traced := range []bool{false, true} {
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			res, err := measure(workloads[name], 1, tinyScale, 0, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			var buf bytes.Buffer
			if err := res.write(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var out struct {
				Correct   bool
				Attempted uint64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", name, err)
			}
			if !out.Correct || out.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, attempted %d", name, traced, out.Correct, out.Attempted)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics reported, BENCHMARK.json declares %d", name, traced, len(out.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := out.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): %s not reported", name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s (traced %v): %s in %q, declared %q", name, traced, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "city", "--seed", "1", "--seconds", "1", "--trace", "2"},
		{"--workload", "city", "--seed", "1", "--seconds", "0", "--trace", "0"},
		{"--workload", "city", "extra"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q; want 2 and none", args, code, stdout.String())
		}
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
