package xlf

import (
	"testing"

	"xlf/internal/netsim"
)

// raceEnabled is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so byte-exact AllocsPerRun guards only run
// in regular builds.
var raceEnabled bool

// TestRefusedSendOutAllocFree pins the deny path end to end: once warm, a
// packet the NAC refuses costs no heap from Network.NewPacket through
// Gateway.SendOut's refusal and, for an enrolled device, the nac-denial
// signal OnDeny feeds the Core.
func TestRefusedSendOutAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sys, err := New(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.NAC.Block("lan:bulb-1")
	net, gw := sys.Home.Net, sys.Home.Gateway
	for _, tc := range []struct {
		name   string
		tmpl   netsim.Packet
		signal bool
	}{
		{"blocked", netsim.Packet{Src: "lan:bulb-1", SrcPort: 7001, Dst: "wan:cnc", DstPort: 23, Size: 60}, false},
		{"unenrolled", netsim.Packet{Src: "lan:cam-1", SrcPort: 7001, Dst: "wan:cnc", DstPort: 23, Size: 60}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			send := func() {
				if gw.SendOut(net, net.NewPacket(tc.tmpl)) == nil {
					t.Fatal("refused packet sent")
				}
			}
			// Past the Core's per-device signal cap, so a denial evicts
			// rather than grows the window.
			for i := 0; i < 5000; i++ {
				send()
			}
			before, denials := sys.Core.Stats(), sys.NAC.Denials()
			if n := testing.AllocsPerRun(1000, send); n != 0 {
				t.Errorf("refused SendOut allocates %.1f per packet, want 0", n)
			}
			after := sys.Core.Stats()
			if after.Alerts != before.Alerts {
				t.Errorf("measured denials raised %d alerts", after.Alerts-before.Alerts)
			}
			if got := sys.NAC.Denials() - denials; got != 1001 {
				t.Errorf("measured %d denials, want 1001", got)
			}
			if got, want := after.Ingested-before.Ingested, uint64(0); tc.signal {
				if got != 1001 {
					t.Errorf("Core ingested %d denial signals, want 1001", got)
				}
			} else if got != want {
				t.Errorf("Core ingested %d signals for a blocked device, want 0", got)
			}
		})
	}
}
