package exp

import (
	"fmt"
	"time"

	"xlf"
	"xlf/internal/analytics"
	"xlf/internal/core"
	"xlf/internal/metrics"
	"xlf/internal/obs"
	"xlf/internal/service"
)

// runE1 is the paper's central claim made measurable: on an
// identical labelled campaign (benign background + five concurrent
// attacks), per-device detection F1 for the device-only, network-only and
// service-only ablations versus the full cross-layer XLF Core, plus a
// no-corroboration-bonus ablation of the correlation window.
//
// It is the E1 registry entry. Both ablation grids — the layer configs
// and the correlation windows — are independent sweep points (each builds
// its own system from the seed), so they fan out across env.Workers.
func runE1(env *Env) *Result {
	r := &Result{ID: "E1", Title: "Cross-layer vs single-layer detection (per-device F1)"}

	type config struct {
		name   string
		layers []core.LayerName
		bonus  float64
	}
	configs := []config{
		{"device-only", []core.LayerName{core.Device}, 0.25},
		{"network-only", []core.LayerName{core.Network}, 0.25},
		{"service-only", []core.LayerName{core.Service}, 0.25},
		{"xlf-no-bonus", nil, 0},
		{"xlf-full", nil, 0.25},
	}

	type e1Point struct {
		conf              metrics.Confusion
		alerts, contained int
	}
	points := Sweep(env, len(configs), func(i int, env *Env) e1Point {
		conf, alerts, contained := runE1Config(env, "E1/"+configs[i].name, configs[i].layers, configs[i].bonus, 0)
		return e1Point{conf, alerts, contained}
	})

	t := metrics.NewTable("", "Configuration", "Precision", "Recall", "F1", "Alerts", "Contained")
	for i, cfg := range configs {
		p := points[i]
		t.AddRow(cfg.name,
			fmt.Sprintf("%.3f", p.conf.Precision()),
			fmt.Sprintf("%.3f", p.conf.Recall()),
			fmt.Sprintf("%.3f", p.conf.F1()),
			fmt.Sprint(p.alerts), fmt.Sprint(p.contained))
		r.num("f1_"+cfg.name, p.conf.F1())
		r.num("recall_"+cfg.name, p.conf.Recall())
		r.num("precision_"+cfg.name, p.conf.Precision())
	}

	// Ablation: correlation window size (full XLF). Evidence from
	// different layers arrives seconds-to-minutes apart (attestation is
	// periodic); too narrow a window forfeits corroboration.
	windows := []time.Duration{5 * time.Second, 30 * time.Second, 2 * time.Minute, 10 * time.Minute}
	wpoints := Sweep(env, len(windows), func(i int, env *Env) metrics.Confusion {
		conf, _, _ := runE1Config(env, "E1/window/"+windows[i].String(), nil, 0.25, windows[i])
		return conf
	})
	wt := metrics.NewTable("", "Window", "Precision", "Recall", "F1")
	for i, w := range windows {
		conf := wpoints[i]
		wt.AddRow(w.String(),
			fmt.Sprintf("%.3f", conf.Precision()),
			fmt.Sprintf("%.3f", conf.Recall()),
			fmt.Sprintf("%.3f", conf.F1()))
		r.num(fmt.Sprintf("f1_window_%s", w), conf.F1())
	}

	r.Output = t.String() +
		"\nGround truth: cam-1, wallpad-1, window-1, fridge-1 attacked; all other devices benign.\n" +
		"\nAblation: correlation window (xlf-full)\n" + wt.String()
	return r
}

// runE1Config executes the composite campaign under one Core configuration
// and scores per-device detection. window = 0 keeps the default. The sweep
// point's env supplies the seed, (when tracing is enabled) the span
// recorder for this system's cross-layer timeline, and (when telemetry is
// enabled) the rollup pipeline attached under label.
func runE1Config(env *Env, label string, layers []core.LayerName, bonus float64, window time.Duration) (metrics.Confusion, int, int) {
	coreCfg := core.DefaultConfig()
	coreCfg.EnabledLayers = layers
	coreCfg.LayerBonus = bonus
	if window > 0 {
		coreCfg.Window = window
	}

	sys, err := xlf.New(xlf.Options{
		Seed:       env.Seed,
		Flaws:      vulnerableFlaws(),
		CoreConfig: coreCfg,
		Tracer:     env.Tracer(),
	})
	if err != nil {
		panic(err) // deterministic construction; cannot fail at runtime
	}
	if interval := env.RollupInterval(); interval > 0 {
		// Roll up the Core's own registry, close the detection loop
		// (attacks mark injections via Home.Detections, Core alerts
		// observe them), and tee spans into the flight recorder. The
		// ticker runs with zero jitter: a jittered ticker would consume
		// kernel RNG and perturb the scenario it is observing.
		tel := obs.NewTelemetry(sys.Core.Metrics(), interval, 90*time.Second)
		sys.Core.Detections = tel.Detections
		sys.Core.Recorder = tel.Recorder
		sys.Home.Detections = tel.Detections
		env.Tracer().SetRecorder(tel.Recorder)
		k := sys.Home.Kernel
		k.Every(interval, 0, "telemetry-rollup", func() { tel.Tick(k.Now()) })
		env.AttachTelemetry(label, tel)
	}
	runE1Scenario(sys)

	_, victims := scenarioAttacks()
	flagged := map[string]bool{}
	for _, id := range sys.Core.FlaggedDevices() {
		flagged[id] = true
	}
	var conf metrics.Confusion
	for id := range sys.Home.Devices {
		conf.Record(flagged[id], victims[id])
	}
	st := sys.Core.Stats()
	return conf, int(st.Alerts), int(st.Contained)
}

// runE1Scenario schedules the benign background and the attack campaign,
// then runs the simulation.
func runE1Scenario(sys *xlf.System) {
	if err := sys.InstallApp(climateApp()); err != nil {
		panic(err)
	}
	sys.SetContext(analytics.Context{OutdoorTempF: 72, UserHome: true})

	// Benign background: user interactions across the day.
	benign := []struct {
		at  time.Duration
		dev string
		ev  string
	}{
		{20 * time.Second, "bulb-1", "on"},
		{40 * time.Second, "thermo-1", "heat"},
		{70 * time.Second, "thermo-1", "target_reached"},
		{2 * time.Minute, "cam-1", "motion"},
		{2*time.Minute + 30*time.Second, "cam-1", "clear"},
		{3 * time.Minute, "bulb-1", "off"},
		{4 * time.Minute, "coffee-1", "brew"},
		{4*time.Minute + 40*time.Second, "coffee-1", "done"},
		{5 * time.Minute, "smoke-1", "test"},
		{5*time.Minute + 10*time.Second, "smoke-1", "clear"},
	}
	for _, e := range benign {
		e := e
		sys.Home.Kernel.Schedule(e.at, "benign", func() {
			sys.Home.UserEvent(e.dev, e.ev) // illegal benign events are impossible here
		})
	}

	// Attack campaign, staggered.
	atks, _ := scenarioAttacks()
	env := sys.Home.AttackEnv()
	for i, a := range atks {
		a := a
		sys.Home.Kernel.Schedule(time.Duration(30+60*i)*time.Second, "attack:"+a.Name(), func() {
			a.Execute(env)
		})
	}
	sys.Home.Run(12 * time.Minute)
}

// climateApp is the §IV-C3 automation used across experiments.
func climateApp() *service.SmartApp {
	above := 80.0
	return &service.SmartApp{
		ID: "climate-window",
		Rules: []service.Rule{{
			TriggerDevice: "thermo-1", TriggerEvent: "temperature", TriggerAbove: &above,
			ActionDevice: "window-1", ActionCommand: "open",
		}},
		Grants: []service.Grant{
			{DeviceID: "thermo-1", Capability: "temperature"},
			{DeviceID: "window-1", Capability: "lock"},
		},
	}
}
