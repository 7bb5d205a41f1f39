package exp

import (
	"fmt"
	"sort"
	"time"

	"xlf"
	"xlf/internal/attack"
	"xlf/internal/core"
	"xlf/internal/device"
	"xlf/internal/metrics"
	"xlf/internal/testbed"
)

// runE9 runs a multi-day simulated household under the full XLF
// stack: a realistic diurnal benign workload, with one attack campaign
// injected midway. It reports the operational numbers a deployment would
// be judged by — false alerts per benign device-day, detection and
// containment latency for the campaign, and alert volume.
//
// It is the E9 registry entry. The energy variant is an independent
// simulation of the same seed, so it runs as a concurrent sweep point
// alongside the main detection horizon.
func runE9(env *Env) *Result {
	seed := env.Seed
	r := &Result{ID: "E9", Title: "Long-horizon stability: 3-day household, one campaign"}

	const days = 3
	// The lightweight-encryption energy variant is a second, independent
	// 3-day simulation; overlap it with the main horizon when the env has
	// workers to spare.
	var energyCh chan string
	if env.Workers > 1 {
		energyCh = make(chan string, 1)
		go func() { energyCh <- runE9Energy(seed, days) }()
	}

	sys, err := xlf.New(xlf.Options{Seed: seed, Flaws: vulnerableFlaws(), Tracer: env.Tracer()})
	if err != nil {
		panic(err)
	}
	events := sys.Home.GenerateWorkload(testbed.WorkloadConfig{Days: days, Intensity: 1})
	sys.Home.ScheduleWorkload(events)

	// The victims are known only after the run: keep each alert's time,
	// device and containment to classify it then.
	type alertAt struct {
		at        time.Duration
		device    string
		contained bool
	}
	var alerts []alertAt
	sys.Core.OnAlert = func(a core.Alert) { alerts = append(alerts, alertAt{a.Time, a.DeviceID, a.Action != ""}) }

	// Campaign midway through day 2.
	campaignAt := 36 * time.Hour
	m := &attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 20 * time.Second}
	sys.Home.Kernel.Schedule(campaignAt, "campaign", func() {
		m.Execute(sys.Home.AttackEnv())
	})

	if err := sys.Home.Run(days * 24 * time.Hour); err != nil {
		panic(err)
	}

	victims := map[string]bool{}
	for _, id := range m.Recruited() {
		victims[id] = true
	}
	falseAlerts := 0
	var detectAt, containAt time.Duration = -1, -1
	for _, a := range alerts {
		if victims[a.device] {
			if detectAt < 0 {
				detectAt = a.at
			}
			if a.contained && containAt < 0 {
				containAt = a.at
			}
			continue
		}
		falseAlerts++
	}

	benignDevices := len(sys.Home.Devices) - len(victims)
	fpPerDeviceDay := float64(falseAlerts) / float64(benignDevices*days)

	t := metrics.NewTable("", "Metric", "Value")
	t.AddRow("benign interactions scheduled", fmt.Sprint(len(events)))
	t.AddRow("simulated horizon", fmt.Sprintf("%d days", days))
	t.AddRow("devices recruited by campaign", fmt.Sprint(len(m.Recruited())))
	t.AddRow("total alerts", fmt.Sprint(len(alerts)))
	t.AddRow("false alerts (benign devices)", fmt.Sprint(falseAlerts))
	t.AddRow("false alerts / benign device-day", fmt.Sprintf("%.4f", fpPerDeviceDay))
	if detectAt >= 0 {
		t.AddRow("campaign detection latency", (detectAt - campaignAt).Truncate(time.Millisecond).String())
	} else {
		t.AddRow("campaign detection latency", "NOT DETECTED")
	}
	if containAt >= 0 {
		t.AddRow("campaign containment latency", (containAt - campaignAt).Truncate(time.Millisecond).String())
	} else {
		t.AddRow("campaign containment latency", "-")
	}
	delivered, dropped, bytes := sys.Home.Net.Stats()
	t.AddRow("packets delivered / dropped", fmt.Sprintf("%d / %d", delivered, dropped))
	t.AddRow("bytes on the wire", fmt.Sprint(bytes))

	// Variant: the same horizon with lightweight encryption on, measuring
	// the in-vivo battery cost of the §IV-A2 function on battery devices.
	var et string
	if energyCh != nil {
		et = <-energyCh
	} else {
		et = runE9Energy(seed, days)
	}

	r.Output = t.String() + "\nLightweight-encryption energy cost over the same horizon:\n" + et
	r.num("false_per_device_day", fpPerDeviceDay)
	r.num("detected", boolTo01(detectAt >= 0))
	r.num("contained", boolTo01(containAt >= 0))
	if detectAt >= 0 {
		r.num("detect_latency_s", (detectAt - campaignAt).Seconds())
	}
	return r
}

// runE9Energy reruns the benign horizon with per-device sessions enabled
// and reports battery draw attributable to sealing.
func runE9Energy(seed int64, days int) string {
	sys, err := xlf.New(xlf.Options{Seed: seed, Flaws: vulnerableFlaws(), LightweightEncryption: true})
	if err != nil {
		panic(err)
	}
	sys.Home.ScheduleWorkload(sys.Home.GenerateWorkload(testbed.WorkloadConfig{Days: days, Intensity: 1}))
	if err := sys.Home.Run(time.Duration(days) * 24 * time.Hour); err != nil {
		panic(err)
	}
	const fullUJ = 2.0 * 3600 * 3 * 1e6
	t := metrics.NewTable("", "Battery device", "Session cipher", "Battery consumed")
	ids := make([]string, 0, len(sys.Home.Sessions))
	for id := range sys.Home.Sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		d := sys.Home.Devices[id]
		if d.Profile.Power != device.PowerBattery {
			continue
		}
		used := (fullUJ - d.BatteryUJ) / fullUJ
		t.AddRow(id, sys.Home.Sessions[id].Algorithm, fmt.Sprintf("%.5f%%", used*100))
	}
	return t.String()
}
