package netsim

import (
	"testing"

	"xlf/internal/sim"
)

// raceEnabled is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so byte-exact AllocsPerRun guards only run
// in regular builds.
var raceEnabled bool

// TestSendDeliverAllocBudget is the dynamic half of the //xlf:hotpath
// contract on Send and deliver: moving one packet end to end allocates
// nothing — Send reuses the network's long-lived deliverArg closure and a
// constant event name, the kernel recycles a pooled event slot, and
// deliver (taps, stats, node dispatch) allocates nothing.
func TestSendDeliverAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}

	k := sim.NewKernel(1)
	n := New(k)
	dst := &FuncNode{Address: "lan:sink", Fn: func(*Network, *Packet) {}}
	if err := n.Attach(dst, Link{}); err != nil {
		t.Fatal(err)
	}
	pkt := &Packet{Src: "lan:src", Dst: "lan:sink", Proto: "TLS", Size: 100}

	if a := testing.AllocsPerRun(200, func() {
		n.Send(pkt)
		if !k.Step() {
			t.Fatal("no delivery event")
		}
	}); a != 0 {
		t.Errorf("Send+deliver allocates %.1f per packet, want 0", a)
	}
}

// TestSendOutAllocBudget: a keepalive on an existing NAT binding costs
// nothing from SendOut to delivery. SendOut rewrites the caller's packet
// in place, so the only packet is the sender's; once the cloud has
// received it the test, as its last owner, rewinds it for the next round.
func TestSendOutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}

	k := sim.NewKernel(1)
	n := New(k)
	gw := NewGateway("lan:gw", "wan:home")
	for _, node := range []Node{gw, gw.WANNode(), &FuncNode{Address: "wan:cloud", Fn: func(*Network, *Packet) {}}} {
		if err := n.Attach(node, Link{}); err != nil {
			t.Fatal(err)
		}
	}
	gw.OnForward = func(*Packet) {}
	pkt := &Packet{Proto: "XLF-LWC", Encrypted: true, Size: 180, Payload: make([]byte, 48)}
	keepalive := func() {
		pkt.Src, pkt.SrcPort, pkt.Dst, pkt.DstPort = "lan:cam", 7443, "wan:cloud", 443
		if err := gw.SendOut(n, pkt); err != nil {
			t.Fatal(err)
		}
		if !k.Step() {
			t.Fatal("no delivery event")
		}
	}
	keepalive() // creates the NAT binding

	if a := testing.AllocsPerRun(200, keepalive); a != 0 {
		t.Errorf("SendOut+deliver allocates %.1f per keepalive, want 0", a)
	}
	if pkt.Src != "wan:home" {
		t.Errorf("delivered packet src = %q, want the gateway's wan:home", pkt.Src)
	}
}

// BenchmarkNetsimSend measures the packet hot path end to end
// (Send → pooled delivery event → deliver) and must report 0 allocs/op.
// The AllocsPerRun test above enforces the 0; scripts/check.sh prints
// ns/op for the log.
func BenchmarkNetsimSend(b *testing.B) {
	k := sim.NewKernel(1)
	n := New(k)
	dst := &FuncNode{Address: "lan:sink", Fn: func(*Network, *Packet) {}}
	if err := n.Attach(dst, Link{}); err != nil {
		b.Fatal(err)
	}
	pkt := &Packet{Src: "lan:src", Dst: "lan:sink", Proto: "TLS", Size: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(pkt)
		if !k.Step() {
			b.Fatal("no delivery event")
		}
	}
}
