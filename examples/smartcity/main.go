// Smartcity: the million-device kernel demonstration — one simulation
// kernel, one network, a full smart-city sensor fleet reporting into
// district sinks. This is the scale contract behind the timer-wheel
// scheduler and the pooled event slab: a steady state of two pooled
// events per sensor per period with no per-report allocation.
//
// The defaults run 1,000,000 devices for 60 simulated seconds. Use the
// flags to rescale:
//
//	go run ./examples/smartcity -devices 1000000 -horizon 60s
//
// With -telemetry the run enables the sim-clock rollup pipeline and the
// default attack timeline (a district flood and a slow exfiltration),
// prints per-window throughput and per-class detection latency, and
// writes the xlf-metrics/v1 artifact for `xlf-trace metrics`:
//
//	go run ./examples/smartcity -devices 100000 -telemetry metrics.jsonl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"xlf/internal/obs"
	"xlf/internal/testbed"
)

func main() {
	devices := flag.Int("devices", 1_000_000, "sensor count")
	districts := flag.Int("districts", 0, "sink count (0 = scenario default)")
	period := flag.Duration("period", 10*time.Second, "per-sensor report period")
	horizon := flag.Duration("horizon", 60*time.Second, "simulated run time")
	seed := flag.Int64("seed", 1, "deterministic seed")
	telemetry := flag.String("telemetry", "", "file to write the xlf-metrics/v1 rollup artifact into (enables the attack timeline)")
	rollupIv := flag.Duration("rollup-interval", time.Second, "sim-time rollup window length (with -telemetry)")
	flag.Parse()

	cfg := testbed.CityConfig{
		Seed:        *seed,
		Devices:     *devices,
		Districts:   *districts,
		ReportEvery: *period,
		Horizon:     *horizon,
	}
	if *telemetry != "" {
		cfg.RollupInterval = *rollupIv
		cfg.Attacks = testbed.DefaultCityAttacks()
	}

	start := time.Now()
	city, err := testbed.NewCity(cfg)
	if err != nil {
		log.Fatal(err)
	}
	built := time.Since(start)

	st, err := city.Run()
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	fmt.Println(st)
	fmt.Printf("wall clock: %s build, %s total (%.0f kernel events/sec)\n",
		built.Round(time.Millisecond), wall.Round(time.Millisecond),
		float64(st.Events)/wall.Seconds())

	tel := city.Telemetry()
	if tel == nil {
		return
	}
	reportTelemetry(tel)
	if err := writeTelemetry(*telemetry, tel, *seed); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("telemetry: wrote %s (render with: xlf-trace metrics %s)\n", *telemetry, *telemetry)
}

// reportTelemetry prints the windowed throughput envelope and the
// detection-latency outcome of the attack timeline.
func reportTelemetry(tel *obs.Telemetry) {
	var minRate, maxRate float64
	windows := tel.Rollup.Windows()
	for i, w := range windows {
		for _, c := range w.Counters {
			if c.Name != "city.delivered" {
				continue
			}
			if i == 0 || c.PerSec < minRate {
				minRate = c.PerSec
			}
			if c.PerSec > maxRate {
				maxRate = c.PerSec
			}
		}
	}
	fmt.Printf("telemetry: %d windows of %s; delivered %.0f..%.0f events/sec per window\n",
		len(windows), tel.Rollup.Interval(), minRate, maxRate)

	for _, s := range tel.Detections.Stats() {
		fmt.Printf("telemetry: %-6s detection latency p50=%s p99=%s (%d detected)\n",
			s.Class, s.P50, s.P99, s.Count)
	}
	if pending := tel.Detections.Pending(); pending > 0 {
		fmt.Printf("telemetry: WARNING %d injected attacks were never detected\n", pending)
	}
	breaches := tel.Registry.Counter(obs.DetectSLOBreach).Value()
	fmt.Printf("telemetry: %d SLO breaches (objective %s), %d flight-recorder dumps\n",
		breaches, tel.Detections.SLO(), len(tel.Recorder.Dumps()))
}

// writeTelemetry serializes the run's windows and dumps as xlf-metrics/v1.
func writeTelemetry(path string, tel *obs.Telemetry, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := obs.MetricsMeta{
		Seed:     seed,
		Clock:    "step",
		Source:   "examples/smartcity",
		Interval: tel.Rollup.Interval(),
		Evicted:  tel.Rollup.Evicted(),
	}
	if werr := obs.WriteMetrics(f, meta, tel.Rollup.Windows(), tel.Recorder.Dumps()); werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}
