package exp

import (
	"fmt"
	"time"

	"xlf"
	"xlf/internal/attack"
	"xlf/internal/core"
	"xlf/internal/metrics"
	"xlf/internal/netsim"
)

// runE8 runs the full Mirai-style campaign (recruitment -> beaconing ->
// DDoS) against the unprotected home and the XLF home, reporting time to
// detection, time to containment, C&C beacons escaped, and flood packets
// delivered to the victim — §III-B's "army" threat end to end.
//
// It is the E8 registry entry. The unprotected and protected homes are
// independent simulations of the same seed, so both run as sweep points.
func runE8(env *Env) *Result {
	r := &Result{ID: "E8", Title: "Botnet campaign: unprotected vs XLF (containment timeline)"}
	t := metrics.NewTable("", "Home", "Recruited", "DetectedAt", "ContainedAt", "BeaconsEscaped", "FloodPktsDelivered")

	homes := []bool{false, true}
	rows := Sweep(env, len(homes), func(i int, env *Env) e8Row {
		return e8Home(env, homes[i])
	})
	for i, protected := range homes {
		row := rows[i]
		name := "unprotected"
		if protected {
			name = "xlf"
		}
		t.AddRow(name, fmt.Sprint(row.recruited), row.detectedAt, row.containedAt,
			fmt.Sprint(row.beacons), fmt.Sprint(row.floodPkts))
		prefix := "base_"
		if protected {
			prefix = "xlf_"
		}
		r.num(prefix+"beacons", float64(row.beacons))
		r.num(prefix+"flood", float64(row.floodPkts))
		r.num(prefix+"recruited", float64(row.recruited))
	}
	r.Output = t.String() +
		"\nCampaign: recruitment at t=10s, DDoS at t=90s for 30s @100pps/bot.\n" +
		"XLF's NAC denies the C&C endpoint outright; correlation quarantines the bots.\n"
	return r
}

type e8Row struct {
	recruited   int
	detectedAt  string
	containedAt string
	beacons     int
	floodPkts   int
}

func e8Home(env *Env, protected bool) e8Row {
	sys, err := xlf.New(xlf.Options{
		Seed:              env.Seed,
		Flaws:             vulnerableFlaws(),
		DisableProtection: !protected,
		Tracer:            env.Tracer(),
	})
	if err != nil {
		panic(err)
	}
	row := e8Row{detectedAt: "-", containedAt: "-"}
	if protected {
		sys.Core.OnAlert = func(a core.Alert) {
			if row.detectedAt == "-" {
				row.detectedAt = a.Time.Truncate(time.Millisecond).String()
			}
			if a.Action != "" && row.containedAt == "-" {
				row.containedAt = a.Time.Truncate(time.Millisecond).String()
			}
		}
	}
	sys.Home.Net.AddTap(netsim.TapWAN, func(_ netsim.TapDirection, pkt *netsim.Packet) {
		switch pkt.Dst {
		case "wan:cnc":
			row.beacons++
		case "wan:victim":
			row.floodPkts++
		}
	})
	aenv := sys.Home.AttackEnv()
	m := &attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 10 * time.Second}
	sys.Home.Kernel.Schedule(10*time.Second, "recruit", func() { m.Execute(aenv) })
	sys.Home.Kernel.Schedule(90*time.Second, "ddos", func() {
		(&attack.DDoSFlood{Victim: "wan:victim", Rate: 100, Duration: 30 * time.Second}).Execute(aenv)
	})
	if err := sys.Home.Run(4 * time.Minute); err != nil {
		panic(err)
	}

	row.recruited = len(m.Recruited())
	return row
}
