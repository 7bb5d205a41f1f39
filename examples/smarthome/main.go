// Smarthome: a full day-in-the-life of an XLF-protected home — benign
// routines, the §IV-C3 automation, and a staged multi-layer attack
// campaign — narrated as it unfolds.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"xlf"
	"xlf/internal/analytics"
	"xlf/internal/attack"
	"xlf/internal/service"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the day and writes the narration and the final report to w.
func run(w io.Writer) error {
	sys, err := xlf.New(xlf.Options{
		Seed:  2026,
		Flaws: service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true},
	})
	if err != nil {
		return err
	}
	k := sys.Home.Kernel

	narrate := func(msg string) {
		fmt.Fprintf(w, "[%8s] %s\n", k.Now().Truncate(time.Millisecond), msg)
	}
	sys.Core.OnAlert = func(a xlf.CoreAlert) { narrate("XLF " + a.String()) }

	// The climate automation from the paper: window opens above 80F.
	above := 80.0
	if err := sys.InstallApp(&service.SmartApp{
		ID: "climate-window",
		Rules: []service.Rule{{
			TriggerDevice: "thermo-1", TriggerEvent: "temperature", TriggerAbove: &above,
			ActionDevice: "window-1", ActionCommand: "open",
		}},
		Grants: []service.Grant{
			{DeviceID: "thermo-1", Capability: "temperature"},
			{DeviceID: "window-1", Capability: "lock"},
		},
	}); err != nil {
		return err
	}

	// Morning routine (benign).
	type ev struct {
		at  time.Duration
		dev string
		e   string
	}
	for _, e := range []ev{
		{30 * time.Second, "bulb-1", "on"},
		{time.Minute, "coffee-1", "brew"},
		{90 * time.Second, "coffee-1", "done"},
		{2 * time.Minute, "thermo-1", "heat"},
		{3 * time.Minute, "thermo-1", "target_reached"},
		{4 * time.Minute, "bulb-1", "off"},
	} {
		e := e
		k.Schedule(e.at, "routine", func() {
			narrate("user: " + e.dev + " " + e.e)
			if err := sys.Home.UserEvent(e.dev, e.e); err != nil {
				narrate("  (device refused: " + err.Error() + ")")
			}
		})
	}

	// The family leaves at t=5m: contextual analytics knows nobody is
	// home and it is cold outside.
	k.Schedule(5*time.Minute, "depart", func() {
		narrate("context: family departs; 30F outside")
		sys.SetContext(analytics.Context{OutdoorTempF: 30, UserHome: false})
	})

	env := sys.Home.AttackEnv()
	// t=6m: attacker heats the thermostat's sensor — the legitimate
	// automation opens the window for the burglar (§IV-C3).
	k.Schedule(6*time.Minute, "policy-abuse", func() {
		narrate("attacker: heating the thermostat sensor")
		res := (&attack.PolicyAbuse{ThermoID: "thermo-1", FakeTempF: 95}).Execute(env)
		narrate("attacker: " + res.String())
	})
	// t=8m: botnet recruitment.
	k.Schedule(8*time.Minute, "recruit", func() {
		narrate("attacker: scanning for telnet + default credentials")
		res := (&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 12 * time.Second}).Execute(env)
		narrate("attacker: " + res.String())
	})
	// t=11m: tampered firmware push.
	k.Schedule(11*time.Minute, "ota", func() {
		narrate("attacker: pushing tampered firmware to cam-1")
		res := (&attack.FirmwareModulation{Target: "cam-1"}).Execute(env)
		narrate("attacker: " + res.String())
	})

	if err := sys.Home.Run(15 * time.Minute); err != nil {
		return err
	}

	fmt.Fprintln(w)
	fmt.Fprint(w, sys.Report())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "NAC policy after containment:")
	fmt.Fprint(w, sys.NAC.Describe())
	return nil
}
