// Quickstart: build an XLF-protected smart home, launch one attack, and
// watch the cross-layer correlation catch and contain it.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"xlf"
	"xlf/internal/attack"
	"xlf/internal/service"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the home, plays the attack and writes the alerts and the
// report to w.
func run(w io.Writer) error {
	// A home whose cloud platform still has the classic flaws (coarse
	// grants, unsigned events, unverified OTA) — the world XLF defends.
	sys, err := xlf.New(xlf.Options{
		Seed:  1,
		Flaws: service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true},
	})
	if err != nil {
		return err
	}

	// Print an alert the moment the Core raises one.
	sys.Core.OnAlert = func(a xlf.CoreAlert) {
		fmt.Fprintln(w, "ALERT:", a)
	}

	// A Mirai-style operator recruits whatever answers telnet with
	// factory credentials (the network camera, in the default catalog).
	res := (&attack.MiraiRecruit{
		CNC:         "wan:cnc",
		BeaconEvery: 10 * time.Second,
	}).Execute(sys.Home.AttackEnv())
	fmt.Fprintln(w, "attacker:", res)

	// Let the simulated home run for three minutes.
	if err := sys.Home.Run(3 * time.Minute); err != nil {
		return err
	}

	fmt.Fprintln(w)
	fmt.Fprint(w, sys.Report())
	return nil
}
