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
