// Command xlf-attack executes the full attack scenario suite (every
// Table II attack plus the §III network/service attacks) against a chosen
// home configuration and prints per-attack outcomes.
//
// Usage:
//
//	xlf-attack                 # vulnerable home (everything lands)
//	xlf-attack -hardened       # hardened platform, no XLF runtime
//	xlf-attack -xlf            # full XLF protection (detection report)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"xlf"
	"xlf/internal/attack"
	"xlf/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("xlf-attack", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "deterministic seed")
		hardened = fs.Bool("hardened", false, "hardened platform (no flaws)")
		withXLF  = fs.Bool("xlf", false, "full XLF runtime")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	flaws := service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true}
	if *hardened {
		flaws = service.Flaws{}
	}
	sys, err := xlf.New(xlf.Options{
		Seed:              *seed,
		Flaws:             flaws,
		DisableProtection: !*withXLF,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "xlf-attack:", err)
		return 1
	}
	if sys.Protected() {
		sys.Core.OnAlert = func(a xlf.CoreAlert) { fmt.Println("ALERT:", a) }
	}
	env := sys.Home.AttackEnv()

	suite := append(attack.TableIIAttacks(),
		&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 15 * time.Second},
		&attack.EventSpoof{DeviceID: "cam-1", Event: "clear", Value: 1},
		&attack.RogueApp{
			AppID: "free-wallpaper", CoverDevice: "window-1", CoverCap: "contact",
			TargetDevice: "window-1", TargetCommand: "unlock",
		},
	)
	fmt.Printf("attack suite against %s home (seed %d)\n\n", mode(*hardened, *withXLF), *seed)
	for _, a := range suite {
		res := a.Execute(env)
		fmt.Printf("  [%-7s] %s\n", a.Layer(), res)
	}
	if err := sys.Home.Run(3 * time.Minute); err != nil {
		fmt.Fprintln(os.Stderr, "xlf-attack:", err)
		return 1
	}
	fmt.Println()
	fmt.Print(sys.Report())
	return 0
}

func mode(hardened, withXLF bool) string {
	switch {
	case withXLF:
		return "XLF-protected"
	case hardened:
		return "hardened"
	default:
		return "vulnerable"
	}
}
