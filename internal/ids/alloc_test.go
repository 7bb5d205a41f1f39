package ids

import (
	"testing"
	"time"

	"xlf/internal/netsim"
)

// raceEnabled is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so byte-exact AllocsPerRun guards only run
// in regular builds.
var raceEnabled bool

// homeMix is a steady home-like record stream: post-NAT keepalives from
// the gateway to six vendor clouds, hub chatter to the devices on the
// LAN, and a sensor that reports less often than the scan window, so its
// state is swept and rebuilt every time. Steps are irregular, so after the
// first beacon verdicts nothing alerts.
type homeMix struct {
	at time.Duration
	i  int
}

var (
	mixClouds  = []netsim.Addr{"wan:cloud-0", "wan:cloud-1", "wan:cloud-2", "wan:cloud-3", "wan:cloud-4", "wan:cloud-5"}
	mixDevices = []netsim.Addr{"lan:cam", "lan:bulb", "lan:lock", "lan:plug", "lan:tv", "lan:thermo"}
	mixSteps   = []time.Duration{90, 410, 230, 170, 350, 60, 280, 130, 500, 220, 40, 310, 190, 260, 80, 370}
)

// mixCycle is the sensor's period in records, about 15s of sim time.
const mixCycle = 60

func (m *homeMix) next() netsim.PacketRecord {
	m.i++
	m.at += mixSteps[m.i%len(mixSteps)] * time.Millisecond
	r := netsim.PacketRecord{Time: m.at, Proto: "XLF-LWC", Size: 180, Encrypted: true}
	switch j := m.i / 2 % len(mixDevices); {
	case m.i%mixCycle == 0:
		r.Src, r.Dst, r.DstPort = "lan:sensor", "lan:hub", 5683
	case m.i%2 == 0:
		r.Src, r.SrcPort, r.Dst, r.DstPort = "wan:gw", 40000+j, mixClouds[j], 443
	default:
		r.Src, r.Dst, r.DstPort = "lan:hub", mixDevices[j], 8443
	}
	return r
}

// TestPipelineProcessAllocBudget: once warm, a record that raises no alert
// costs nothing in any detector, sweeps and state reuse included.
func TestPipelineProcessAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := DefaultPipeline()
	var m homeMix
	for i := 0; i < 20000; i++ { // several minutes of sim time: every window turns over
		p.Process(m.next())
	}
	warm := len(p.Alerts())
	// One run is a whole sensor cycle: AllocsPerRun rounds down, so a
	// per-record run would hide an allocation made once per cycle.
	if a := testing.AllocsPerRun(50, func() {
		for i := 0; i < mixCycle; i++ {
			p.Process(m.next())
		}
	}); a != 0 {
		t.Errorf("non-alerting Process allocates %.0f per %d records, want 0", a, mixCycle)
	}
	if n := len(p.Alerts()); n != warm {
		t.Fatalf("the steady mix raised %d alerts while measured; the guard needs a non-alerting stream", n-warm)
	}
}
