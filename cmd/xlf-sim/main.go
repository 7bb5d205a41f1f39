// Command xlf-sim runs a simulated smart home under XLF protection through
// a scripted day — benign activity plus an attack campaign — and prints
// each alert as the Core raises it, then the protection report, the live
// architecture figures, and the NAC policy.
//
// Usage:
//
//	xlf-sim                 # protected home, default campaign
//	xlf-sim -unprotected    # baseline without XLF
//	xlf-sim -seed 7 -minutes 20
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"xlf"
	"xlf/internal/analytics"
	"xlf/internal/attack"
	"xlf/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("xlf-sim", flag.ContinueOnError)
	var (
		seed        = fs.Int64("seed", 1, "deterministic seed")
		minutes     = fs.Int("minutes", 10, "simulated duration")
		unprotected = fs.Bool("unprotected", false, "run without XLF")
		quiet       = fs.Bool("quiet", false, "report only (skip figures)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sys, err := xlf.New(xlf.Options{
		Seed:              *seed,
		Flaws:             service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true},
		DisableProtection: *unprotected,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "xlf-sim:", err)
		return 1
	}

	// Benign background.
	benign := []struct {
		at  time.Duration
		dev string
		ev  string
	}{
		{20 * time.Second, "bulb-1", "on"},
		{50 * time.Second, "thermo-1", "heat"},
		{90 * time.Second, "thermo-1", "target_reached"},
		{2 * time.Minute, "cam-1", "motion"},
		{2*time.Minute + 30*time.Second, "cam-1", "clear"},
		{4 * time.Minute, "bulb-1", "off"},
	}
	for _, e := range benign {
		e := e
		sys.Home.Kernel.Schedule(e.at, "user", func() { sys.Home.UserEvent(e.dev, e.ev) })
	}
	if sys.Protected() {
		sys.SetContext(analytics.Context{OutdoorTempF: 65, UserHome: true})
		sys.Core.OnAlert = func(a xlf.CoreAlert) { fmt.Fprintln(out, "ALERT:", a) }
	}

	// Attack campaign.
	env := sys.Home.AttackEnv()
	sys.Home.Kernel.Schedule(60*time.Second, "mirai", func() {
		(&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 15 * time.Second}).Execute(env)
	})
	sys.Home.Kernel.Schedule(3*time.Minute, "ota-tamper", func() {
		(&attack.FirmwareModulation{Target: "cam-1"}).Execute(env)
	})
	sys.Home.Kernel.Schedule(5*time.Minute, "ddos", func() {
		(&attack.DDoSFlood{Victim: "wan:victim", Rate: 80, Duration: 20 * time.Second}).Execute(env)
	})

	if err := sys.Home.Run(time.Duration(*minutes) * time.Minute); err != nil {
		fmt.Fprintln(os.Stderr, "xlf-sim:", err)
		return 1
	}

	fmt.Fprint(out, sys.Report())
	if sys.Protected() && !*quiet {
		fmt.Fprintln(out)
		fmt.Fprintln(out, xlf.Figure4())
		fmt.Fprintln(out, "NAC policy:")
		fmt.Fprint(out, sys.NAC.Describe())
	}
	return 0
}
