package exp

import (
	"fmt"
	"time"

	"xlf/internal/metrics"
	"xlf/internal/testbed"
)

// runE10 is the kernel scale experiment: the smart-city fleet
// (testbed.City) at increasing device counts on one simulation kernel,
// reporting delivery and dispatch volume. The registry sweep stops at 50k
// devices so the full suite stays fast under -race; examples/smartcity
// runs the same scenario at one million devices. Host events/sec is
// bench/_perf's city workload, not a number here.
//
// It is the E10 registry entry and a pure function of the seed: each
// scale point builds its own city from it, so the grid fans out across
// env.Workers.
func runE10(env *Env) *Result {
	r := &Result{ID: "E10", Title: "Smart-city scale: one kernel, 10^3..5*10^4 devices"}
	t := metrics.NewTable("", "Devices", "Districts", "Reports", "Delivered", "KernelEvents", "SimTime")

	scales := []int{1000, 10000, 50000}
	rows := Sweep(env, len(scales), func(i int, env *Env) testbed.CityStats {
		cfg := testbed.CityConfig{
			Seed:        env.Seed,
			Devices:     scales[i],
			ReportEvery: 10 * time.Second,
			Horizon:     60 * time.Second,
		}
		// With telemetry on, each scale point runs the default attack
		// timeline and its rollups/dumps flow into the env's observation
		// tree under a per-scale source label.
		if interval := env.RollupInterval(); interval > 0 {
			cfg.RollupInterval = interval
			cfg.Attacks = testbed.DefaultCityAttacks()
		}
		city, err := testbed.NewCity(cfg)
		if err != nil {
			panic(err)
		}
		st, err := city.Run()
		if err != nil {
			panic(err)
		}
		env.AttachTelemetry(fmt.Sprintf("E10/%d", scales[i]), city.Telemetry())
		return st
	})

	var events uint64
	for i, scale := range scales {
		st := rows[i]
		if st.Dropped != 0 || st.Sent == 0 {
			panic(fmt.Sprintf("exp: E10 scale %d lost reports: %+v", scale, st))
		}
		events += st.Events
		t.AddRow(
			fmt.Sprintf("%d", st.Devices),
			fmt.Sprintf("%d", st.Districts),
			fmt.Sprintf("%d", st.Sent),
			fmt.Sprintf("%d", st.Delivered),
			fmt.Sprintf("%d", st.Events),
			st.Now.String(),
		)
	}

	r.Output = t.String()
	r.num("scales", float64(len(scales)))
	r.num("devices_max", float64(scales[len(scales)-1]))
	r.num("events_total", float64(events))
	return r
}
