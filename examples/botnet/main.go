// Botnet: the full Mirai-style campaign — recruitment, C&C beaconing,
// DDoS — run twice: once against an unprotected home and once under XLF,
// with the timeline of detection and containment.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"xlf"
	"xlf/internal/attack"
	"xlf/internal/netsim"
	"xlf/internal/service"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the campaign on both homes, writing the timelines to w.
func run(w io.Writer) error {
	fmt.Fprintln(w, "=== Run 1: unprotected home ===")
	if err := runCampaign(w, false); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "=== Run 2: the same home under XLF ===")
	return runCampaign(w, true)
}

func runCampaign(w io.Writer, protected bool) error {
	sys, err := xlf.New(xlf.Options{
		Seed:              7,
		Flaws:             service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true},
		DisableProtection: !protected,
	})
	if err != nil {
		return err
	}
	k := sys.Home.Kernel
	if protected {
		sys.Core.OnAlert = func(a xlf.CoreAlert) {
			fmt.Fprintf(w, "  [%8s] XLF %s\n", k.Now().Truncate(time.Millisecond), a)
		}
	}

	beacons, flood := 0, 0
	sys.Home.Net.AddTap(netsim.TapWAN, func(_ netsim.TapDirection, pkt *netsim.Packet) {
		switch pkt.Dst {
		case "wan:cnc":
			beacons++
		case "wan:victim":
			flood++
		}
	})
	env := sys.Home.AttackEnv()
	m := &attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 10 * time.Second}
	k.Schedule(10*time.Second, "recruit", func() {
		res := m.Execute(env)
		fmt.Fprintf(w, "  [%8s] attacker: %s\n", k.Now().Truncate(time.Millisecond), res)
	})
	k.Schedule(90*time.Second, "ddos", func() {
		res := (&attack.DDoSFlood{Victim: "wan:victim", Rate: 100, Duration: 30 * time.Second}).Execute(env)
		fmt.Fprintf(w, "  [%8s] attacker: %s\n", k.Now().Truncate(time.Millisecond), res)
	})

	if err := sys.Home.Run(3 * time.Minute); err != nil {
		return err
	}

	fmt.Fprintf(w, "  outcome: %d C&C beacons escaped, %d flood packets hit the victim\n", beacons, flood)
	if protected {
		fmt.Fprintf(w, "  NAC denials: %d (C&C endpoint was never enrolled — denied by default)\n", sys.NAC.Denials())
	}
	return nil
}
