// Command perf is the XLF wall-clock benchmark. It runs one workload's
// round over and over for a fixed host time, checks that every round
// computed the same outcome, and prints each metric as "name value unit"
// followed by one JSON result line:
//
//	perf -workload home|storm|city|auth -seed N -seconds N -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics of untraced rounds.
// With -trace 1 it spends half the time on untraced rounds and half on
// traced ones (CPU profile, hook timers, replays), requires both to
// compute the same outcome, and reports the per-layer metrics. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"
)

func main() {
	// The load is one goroutine. One P keeps the collector on the same
	// CPU, so allocation costs show in wall time instead of hiding on a
	// second CPU whose availability varies run to run.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errIncorrect marks a failed correctness check, as opposed to a failure
// to build or run a workload.
var errIncorrect = errors.New("incorrect output")

// minRounds is the fewest rounds a measured phase runs, however long
// they take.
const minRounds = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: home, storm, city or auth")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1 adds traced rounds and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	round, ok := workloads[*name]
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: perf -workload home|storm|city|auth -seed N -seconds N -trace 0|1")
		return 2
	}
	res, err := measure(round, *seed, fullScale, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintf(stderr, "perf: %s: %v\n", *name, err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perf: %v\n", err)
		return 1
	}
	if !res.correct {
		fmt.Fprintf(stderr, "perf: %s: %v\n", *name, err)
		return 1
	}
	return 0
}

// roundFunc builds and runs one round of a workload under m.
type roundFunc func(seed int64, sc scale, m *meter) (outcome, error)

// meter times one round's set-up and run. In the traced phase it also
// carries the hook timers and the CPU ledger.
type meter struct {
	probes *probes
	ledger *ledger

	setup, wall time.Duration
	alloc, heap uint64
}

// build times fn as set-up, after a collection so that garbage from
// earlier rounds is not charged to it.
func (m *meter) build(fn func() error) error {
	runtime.GC()
	a0, t0 := totalAlloc(), time.Now()
	err := fn()
	m.setup += time.Since(t0)
	m.alloc += totalAlloc() - a0
	return err
}

// run times fn as the measured run. When traced, the CPU profile covers
// fn and nothing else.
func (m *meter) run(fn func() error) error {
	runtime.GC()
	timed := func() error {
		a0, t0 := totalAlloc(), time.Now()
		err := fn()
		m.wall += time.Since(t0)
		m.alloc += totalAlloc() - a0
		return err
	}
	if m.ledger == nil {
		return timed()
	}
	return m.ledger.profile(timed)
}

// settle records the live heap after a run, while the round still holds
// its system.
func (m *meter) settle() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heap = max(m.heap, ms.HeapAlloc)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// phase is a sequence of identical rounds: each round's host costs and
// the outcome they all computed.
type phase struct {
	out                      outcome
	rounds                   int
	setup, wall, alloc, heap []float64
}

// repeat runs a warm-up round, whose costs are discarded, then measured
// rounds until budget has passed and at least minRounds have run. It
// fails when any round's outcome differs from the warm-up's.
func repeat(round roundFunc, seed int64, sc scale, budget time.Duration, p *probes, l *ledger) (phase, error) {
	var ph phase
	deadline := time.Now().Add(budget)
	var err error
	if ph.out, err = round(seed, sc, &meter{probes: p, ledger: l}); err != nil {
		return ph, err
	}
	for ph.rounds < minRounds || time.Now().Before(deadline) {
		m := &meter{probes: p, ledger: l}
		out, err := round(seed, sc, m)
		if err != nil {
			return ph, err
		}
		if out != ph.out {
			return ph, fmt.Errorf("%w: round %d computed %+v, the warm-up %+v", errIncorrect, ph.rounds+1, out, ph.out)
		}
		ph.rounds++
		ph.setup = append(ph.setup, m.setup.Seconds())
		ph.wall = append(ph.wall, m.wall.Seconds())
		ph.alloc = append(ph.alloc, float64(m.alloc))
		ph.heap = append(ph.heap, float64(m.heap))
	}
	return ph, nil
}

// result is what one invocation reports.
type result struct {
	correct           bool
	attempted, failed uint64
	metrics           []metric
}

type metric struct {
	name  string
	value float64
	unit  string
}

// measure runs a workload for budget and reports its end-to-end metrics,
// or with traced its per-layer metrics.
func measure(round roundFunc, seed int64, sc scale, budget time.Duration, traced bool) (result, error) {
	var res result
	plainBudget := budget
	if traced {
		plainBudget = budget / 2
	}
	plain, err := repeat(round, seed, sc, plainBudget, nil, nil)
	res.count(plain)
	if err != nil {
		return res, err
	}
	if !traced {
		res.correct = true
		res.metrics = endToEnd(plain)
		return res, nil
	}
	p, l := newProbes(), newLedger()
	tr, err := repeat(round, seed, sc, budget-plainBudget, p, l)
	res.count(tr)
	if err != nil {
		return res, err
	}
	if tr.out != plain.out {
		return res, fmt.Errorf("%w: traced rounds computed %+v, untraced %+v", errIncorrect, tr.out, plain.out)
	}
	res.correct = true
	res.metrics = perLayer(plain, tr, p, l)
	return res, nil
}

func (r *result) count(ph phase) {
	r.attempted += uint64(ph.rounds) * ph.out.attempted
	r.failed += uint64(ph.rounds) * ph.out.failed
}

// endToEnd derives the user-facing metrics from untraced rounds. A
// round's run cost is read from the run's fastest round: other tenants of
// a shared host only ever slow a round down, so the fastest one is the
// most repeatable reading of the code's own cost. Set-up time and memory
// are medians.
func endToEnd(ph phase) []metric {
	wall := slices.Min(ph.wall)
	return []metric{
		{"setup_s", median(ph.setup), "s"},
		{"wall_s", wall, "s"},
		{"sim_events_per_s", float64(ph.out.events) / wall, "1/s"},
		{"live_heap_mb", median(ph.heap) / 1e6, "MB"},
		{"alloc_mb", median(ph.alloc) / 1e6, "MB"},
	}
}

// perLayer derives the per-layer metrics: the CPU ledger and hook timers
// of the traced rounds, the tracing overhead, and the exact work counts
// and detection quality every round computed.
func perLayer(plain, traced phase, p *probes, l *ledger) []metric {
	var ms []metric
	for _, pkg := range ledgerPackages {
		ms = append(ms, metric{pkg + ".cpu_share", l.share(pkg), "ratio"})
	}
	ms = append(ms, metric{"trace_overhead", slices.Min(traced.wall)/slices.Min(plain.wall) - 1, "ratio"})

	o := plain.out
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"sim.events", o.events},
		{"netsim.delivered", o.netDelivered},
		{"netsim.dropped", o.netDropped},
		{"netsim.bytes", o.netBytes},
		{"core.ingested", o.coreIngested},
		{"core.alerts", o.coreAlerts},
		{"core.contained", o.coreContained},
		{"core.nac_denials", o.nacDenials},
		{"core.false_alerts", o.falseAlerts},
		{"ids.alerts", o.idsAlerts},
		{"xauth.issued", o.xauthIssued},
		{"xauth.refused", o.xauthRefused},
		{"xauth.proxy_hits", o.proxyHits},
		{"xauth.proxy_fills", o.proxyFills},
		{"testbed.city_sent", o.citySent},
		{"testbed.city_delivered", o.cityDelivered},
	} {
		ms = append(ms, metric{c.name, float64(c.n), "count"})
	}
	ms = append(ms,
		metric{"core.alerts_per_signal", ratio(o.coreAlerts, o.coreIngested), "ratio"},
		metric{"xauth.proxy_hit_ratio", ratio(o.proxyHits, o.proxyHits+o.proxyFills), "ratio"},
		metric{"fail_ratio", ratio(o.failed, o.attempted), "ratio"},
		metric{"detect_p50_s", o.detectP50.Seconds(), "sim_s"},
		metric{"detect_p90_s", o.detectP90.Seconds(), "sim_s"},
	)

	// Every traced round, the warm-up included, went through the hooks;
	// calls and busy time are per round.
	rounds := float64(traced.rounds + 1)
	for _, b := range boundaries {
		t := p.timing(b)
		ms = append(ms,
			metric{b + "_us_p50", us(t.p50), "us"},
			metric{b + "_us_p99", us(t.p99), "us"},
			metric{b + "_calls", float64(t.calls) / rounds, "count"},
			metric{b + "_busy_s", t.busy.Seconds() / rounds, "s"},
		)
	}
	for _, r := range replays {
		t := p.timing(r)
		ms = append(ms, metric{r + "_us_p50", us(t.p50), "us"}, metric{r + "_us_p99", us(t.p99), "us"})
	}
	return ms
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// write prints every metric as "name value unit", then the JSON result
// as the last line.
func (r result) write(w io.Writer) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]jsonMetric, len(r.metrics))}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
