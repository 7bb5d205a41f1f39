package netsim

import (
	"bytes"
	"testing"

	"xlf/internal/channel"
	"xlf/internal/lwc"
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

// keepaliveRig builds a gateway with a cloud behind it and returns one
// keepalive round: NewPacket, SendOut, delivery to the cloud and release.
// With seal set, the round seals the payload into the packet's
// PayloadBuffer first, as the testbed's keepalive does; without it the
// payload is a constant slice. The first round creates the NAT binding
// and the one packet (and buffer) later rounds recycle.
func keepaliveRig(tb testing.TB, seal func(dst []byte) ([]byte, error)) (*Network, func()) {
	tb.Helper()
	k := sim.NewKernel(1)
	n := New(k)
	gw := NewGateway("lan:gw", "wan:home")
	for _, node := range []Node{gw, gw.WANNode(), &FuncNode{Address: "wan:cloud", Fn: func(*Network, *Packet) {}}} {
		if err := n.Attach(node, Link{}); err != nil {
			tb.Fatal(err)
		}
	}
	gw.OnForward = func(*Packet) {}
	tmpl := Packet{
		Src: "lan:cam", SrcPort: 7443, Dst: "wan:cloud", DstPort: 443,
		Proto: "XLF-LWC", Encrypted: true, Size: 180,
	}
	if seal == nil {
		tmpl.Payload = make([]byte, 48)
	}
	round := func() {
		p := n.NewPacket(tmpl)
		if seal != nil {
			sealed, err := seal(n.PayloadBuffer(p))
			if err != nil {
				tb.Fatal(err)
			}
			p.Payload = sealed
		}
		if err := gw.SendOut(n, p); err != nil {
			tb.Fatal(err)
		}
		if !k.Step() {
			tb.Fatal("no delivery event")
		}
	}
	round()
	return n, round
}

// TestSendOutAllocBudget: a keepalive on an existing NAT binding costs
// nothing from NewPacket to release: the network recycles the packet it
// delivered last round.
func TestSendOutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	n, round := keepaliveRig(t, nil)
	if a := testing.AllocsPerRun(200, round); a != 0 {
		t.Errorf("NewPacket+SendOut+deliver allocates %.1f per keepalive, want 0", a)
	}
	if n.free == nil || n.free.next != nil {
		t.Error("keepalive rounds did not recycle one packet")
	}
}

// keepaliveSeal returns a device-side PRESENT session's Seal of a
// constant 48-byte keepalive, in the shape keepaliveRig takes.
func keepaliveSeal(tb testing.TB) func(dst []byte) ([]byte, error) {
	tb.Helper()
	info, ok := lwc.NewRegistry().Lookup("PRESENT")
	if !ok {
		tb.Fatal("registry lost PRESENT")
	}
	sess, err := channel.New(info, bytes.Repeat([]byte{7}, info.DefaultKeyBits()/8))
	if err != nil {
		tb.Fatal(err)
	}
	plain := make([]byte, 48)
	return func(dst []byte) ([]byte, error) { return sess.Seal(dst, plain) }
}

// TestSealedKeepaliveAllocBudget: a sealed keepalive costs nothing from
// Seal to release either: Seal appends into the buffer the network took
// back with last round's packet.
func TestSealedKeepaliveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	n, round := keepaliveRig(t, keepaliveSeal(t))
	if a := testing.AllocsPerRun(200, round); a != 0 {
		t.Errorf("Seal+NewPacket+SendOut+deliver allocates %.1f per keepalive, want 0", a)
	}
	if len(n.bufs) != 1 || n.nbufs != 1 {
		t.Errorf("keepalive rounds left %d free buffers of %d, want one recycled buffer", len(n.bufs), n.nbufs)
	}
}

// BenchmarkGatewayKeepalive measures one keepalive from NewPacket through
// SendOut and delivery to its release, and must report 0 allocs/op;
// TestSendOutAllocBudget enforces the 0.
func BenchmarkGatewayKeepalive(b *testing.B) {
	_, round := keepaliveRig(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// BenchmarkSealedKeepalive measures one sealed keepalive from Seal into
// a PayloadBuffer through SendOut and delivery to its release, and must
// report 0 allocs/op; TestSealedKeepaliveAllocBudget enforces the 0.
func BenchmarkSealedKeepalive(b *testing.B) {
	_, round := keepaliveRig(b, keepaliveSeal(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
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
