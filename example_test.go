package xlf_test

import (
	"fmt"
	"time"

	"xlf"
	"xlf/internal/attack"
	"xlf/internal/service"
)

// Example demonstrates the protect-attack-detect loop: a Mirai-style
// operator recruits the telnet-exposed camera, and the XLF Core correlates
// the network-layer evidence into containment. Runs are deterministic per
// seed, so the output below is exact.
func Example() {
	sys, err := xlf.New(xlf.Options{
		Seed:  1,
		Flaws: service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	sys.Core.OnAlert = func(a xlf.CoreAlert) {
		if a.DeviceID == "cam-1" {
			fmt.Printf("alert: sev=%s action=%q\n", a.Severity, a.Action)
		}
	}
	res := (&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 10 * time.Second}).Execute(sys.Home.AttackEnv())
	fmt.Println(res)

	if err := sys.Home.Run(time.Minute); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("camera quarantined:", sys.NAC.Blocked("lan:cam-1"))

	// Output:
	// mirai-recruitment: SUCCESS — recruited 1 devices into botnet
	// alert: sev=warning action=""
	// alert: sev=critical action="quarantined"
	// camera quarantined: true
}
