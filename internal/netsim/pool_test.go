package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"xlf/internal/sim"
)

// poolOp is one step of a seeded traffic program: what to send, and when.
type poolOp struct {
	at      time.Duration
	kind    int
	port    int
	payload []byte
}

// poolProgram draws n ops that mix every path a packet can end on: a
// lossy LAN link, an unknown destination, NAT out to a cloud that answers
// back in, a SendOut the policy denies, a literal (unpooled) packet,
// unsolicited inbound traffic the gateway drops, a sealed keepalive whose
// payload is a network-owned buffer (the cloud answers it with a sealed
// reply that the gateway un-NATs back in), and a sealed packet its sender
// discards unsent.
func poolProgram(rng *rand.Rand, n int) []poolOp {
	ops := make([]poolOp, n)
	for i := range ops {
		op := poolOp{
			at:   time.Duration(rng.Intn(2000)) * time.Millisecond,
			kind: rng.Intn(8),
			port: 7000 + rng.Intn(4),
		}
		if rng.Intn(2) == 0 {
			op.payload = make([]byte, rng.Intn(64))
			rng.Read(op.payload)
		}
		ops[i] = op
	}
	return ops
}

// appendSealed stands in for channel.Session.Seal: it appends a
// nonce-dependent frame of pt to dst, so every sealed payload differs.
func appendSealed(dst []byte, nonce uint64, pt []byte) []byte {
	dst = append(dst, byte(nonce>>8), byte(nonce))
	for _, b := range pt {
		dst = append(dst, b^byte(nonce))
	}
	return append(dst, byte(len(pt)))
}

// poolSeen is one observation of a packet during a tap, handler or
// gateway hook call, copied (payload bytes included) while the observer
// may still read it.
type poolSeen struct {
	where string
	pkt   Packet
}

// poolRun is what one network made of a program.
type poolRun struct {
	seen         []poolSeen
	stats        [3]uint64
	blocked      [2]uint64
	distinct     int // distinct pooled packets observed
	freeLength   int
	distinctBufs int // distinct network-owned payload buffers observed
	freeBufs     int
}

// runPoolProgram plays ops on a fresh network. With fresh set, NewPacket
// always allocates: the reference the pooled network must match.
func runPoolProgram(t *testing.T, seed int64, ops []poolOp, fresh bool) poolRun {
	t.Helper()
	k := sim.NewKernel(seed)
	n := New(k)
	n.fresh = fresh
	var run poolRun
	ptrs := make(map[*Packet]bool)
	bufs := make(map[*byte]bool)
	see := func(where string, p *Packet) {
		q := *p
		q.Payload = append([]byte(nil), p.Payload...)
		run.seen = append(run.seen, poolSeen{where, q})
		if p.pooled {
			ptrs[p] = true
		}
		if p.ownsPayload && cap(p.Payload) > 0 {
			bufs[unsafe.SliceData(p.Payload)] = true
		}
	}
	var nonce uint64
	seal := func(p *Packet, pt []byte) {
		nonce++
		p.Payload = appendSealed(n.PayloadBuffer(p), nonce, pt)
	}

	gw := NewGateway("lan:gw", "wan:home")
	gw.OutboundPolicy = func(p *Packet) error {
		see("policy", p)
		if p.Dst == "wan:evil" {
			return errBlocked
		}
		return nil
	}
	gw.OnForward = func(p *Packet) { see("forward", p) }
	lossy := DefaultLAN()
	lossy.Loss = 0.3
	handler := func(name string) func(*Network, *Packet) {
		return func(_ *Network, p *Packet) { see(name, p) }
	}
	cloud := &FuncNode{Address: "wan:cloud", Fn: func(net *Network, p *Packet) {
		see("cloud", p)
		r := net.NewPacket(Packet{
			Src: "wan:cloud", SrcPort: 443, Dst: p.Src, DstPort: p.SrcPort,
			Proto: "TLS", Size: 90, Payload: p.Payload, App: "reply",
		})
		if p.ownsPayload {
			// p's buffer goes back to the network after this call, so
			// the reply seals what it read into a buffer of its own.
			seal(r, p.Payload)
		}
		net.Send(r)
	}}
	for _, a := range []struct {
		node Node
		link Link
	}{
		{&FuncNode{Address: "lan:a", Fn: handler("a")}, lossy},
		{&FuncNode{Address: "lan:b", Fn: handler("b")}, DefaultLAN()},
		{gw, DefaultLAN()},
		{gw.WANNode(), DefaultWAN()},
		{cloud, DefaultWAN()},
		{&FuncNode{Address: "wan:evil", Fn: handler("evil")}, DefaultWAN()},
	} {
		if err := n.Attach(a.node, a.link); err != nil {
			t.Fatal(err)
		}
	}
	n.AddTap(TapLAN, func(_ TapDirection, p *Packet) { see("tap-lan", p) })
	n.AddTap(TapWAN, func(_ TapDirection, p *Packet) { see("tap-wan", p) })

	for _, op := range ops {
		op := op
		k.Schedule(op.at, "op", func() {
			tmpl := Packet{SrcPort: op.port, Proto: "TLS", Size: 60 + len(op.payload), Payload: op.payload}
			switch op.kind {
			case 0: // lossy LAN to LAN
				tmpl.Src, tmpl.Dst = "lan:a", "lan:b"
				n.Send(n.NewPacket(tmpl))
			case 1: // unknown destination
				tmpl.Src, tmpl.Dst = "lan:b", "lan:ghost"
				n.Send(n.NewPacket(tmpl))
			case 2: // NAT out; the cloud answers back in
				tmpl.Src, tmpl.Dst, tmpl.DstPort = "lan:b", "wan:cloud", 443
				if op.port%2 == 0 {
					tmpl.Src = "lan:a"
				}
				_ = gw.SendOut(n, n.NewPacket(tmpl))
			case 3: // refused by the outbound policy
				tmpl.Src, tmpl.Dst, tmpl.DstPort = "lan:a", "wan:evil", 80
				_ = gw.SendOut(n, n.NewPacket(tmpl))
			case 4: // a literal packet is never recycled
				tmpl.Src, tmpl.Dst = "lan:b", "lan:a"
				p := tmpl
				n.Send(&p)
			case 5: // unsolicited inbound to an unmapped port
				tmpl.Src, tmpl.Dst, tmpl.DstPort = "wan:evil", "wan:home", 9000+op.port
				n.Send(n.NewPacket(tmpl))
			case 6: // sealed keepalive out through the NAT
				tmpl.Src, tmpl.Dst, tmpl.DstPort, tmpl.Encrypted = "lan:b", "wan:cloud", 443, true
				p := n.NewPacket(tmpl)
				seal(p, op.payload)
				_ = gw.SendOut(n, p)
			case 7: // sealed, then discarded unsent (a device out of battery)
				tmpl.Src, tmpl.Dst, tmpl.Encrypted = "lan:a", "wan:cloud", true
				p := n.NewPacket(tmpl)
				seal(p, op.payload)
				n.Discard(p)
			}
		})
	}
	k.Run(time.Hour)
	run.stats[0], run.stats[1], run.stats[2] = n.Stats()
	run.blocked[0], run.blocked[1] = gw.Blocked()
	run.distinct = len(ptrs)
	for p := n.free; p != nil; p = p.next {
		run.freeLength++
	}
	run.distinctBufs, run.freeBufs = len(bufs), len(n.bufs)
	return run
}

// TestPooledMatchesFreshPackets: recycling changes nothing a tap, handler
// or gateway hook can observe. Seeded programs run on a pooled network
// and on one whose NewPacket and PayloadBuffer always allocate; every
// observation (payload bytes included, compared after the run, so an
// observer that kept a recycled payload past its call shows up as
// poisoned or overwritten bytes), the delivery stats and the gateway's
// block counts must agree.
func TestPooledMatchesFreshPackets(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 40; i++ {
		seed := int64(i + 1)
		ops := poolProgram(rng, 50+rng.Intn(400))
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			pooled := runPoolProgram(t, seed, ops, false)
			fresh := runPoolProgram(t, seed, ops, true)
			if len(pooled.seen) != len(fresh.seen) {
				t.Fatalf("pooled network made %d observations, fresh %d", len(pooled.seen), len(fresh.seen))
			}
			for j := range pooled.seen {
				if !reflect.DeepEqual(pooled.seen[j], fresh.seen[j]) {
					t.Fatalf("observation %d differs:\npooled %+v\nfresh  %+v", j, pooled.seen[j], fresh.seen[j])
				}
			}
			if pooled.stats != fresh.stats || pooled.blocked != fresh.blocked {
				t.Errorf("stats %v blocked %v, fresh %v %v", pooled.stats, pooled.blocked, fresh.stats, fresh.blocked)
			}
			if fresh.freeLength != 0 || fresh.freeBufs != 0 {
				t.Errorf("fresh network kept %d free packets and %d free buffers", fresh.freeLength, fresh.freeBufs)
			}
			if len(ops) >= 100 && pooled.distinct >= fresh.distinct {
				t.Errorf("pooled network used %d distinct packets, fresh %d: nothing was recycled", pooled.distinct, fresh.distinct)
			}
			if len(ops) >= 100 && pooled.distinctBufs >= fresh.distinctBufs {
				t.Errorf("pooled network used %d distinct payload buffers, fresh %d: nothing was recycled", pooled.distinctBufs, fresh.distinctBufs)
			}
		})
	}
}

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestReleasedPacketPanics: a released packet is poisoned, so sending it
// again or releasing it twice fails loudly instead of corrupting the
// free list.
func TestReleasedPacketPanics(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	if err := n.Attach(&FuncNode{Address: "lan:sink"}, Link{}); err != nil {
		t.Fatal(err)
	}
	gw := NewGateway("lan:gw", "wan:home")

	p := n.NewPacket(Packet{Src: "lan:src", Dst: "lan:sink", Size: 10})
	n.Send(p)
	if !k.Step() {
		t.Fatal("no delivery event")
	}
	if p.Src != released || p.Dst != released {
		t.Fatalf("delivered pooled packet not poisoned: %s -> %s", p.Src, p.Dst)
	}
	mustPanic(t, "Send after release", func() { n.Send(p) })
	mustPanic(t, "SendOut after release", func() { _ = gw.SendOut(n, p) })
	mustPanic(t, "double release", func() { n.release(p) })
	if n.free != p || p.next != nil {
		t.Error("a refused release changed the free list")
	}

	lit := &Packet{Src: "lan:src", Dst: "lan:sink", Size: 10}
	n.Send(lit)
	k.Step()
	if lit.Src != "lan:src" || n.free != p {
		t.Error("a literal packet was recycled")
	}
	n.Send(lit) // its sender may reuse it once delivered
	k.Step()
}

// TestFreeListBounded: the free lists never hold more packets, or more
// payload buffers, than were in flight at once, and a literal packet
// never enters them. Lossless links to attached nodes deliver every
// packet once, so the handler's sets of outstanding pooled packets and
// buffers are exactly the network's in-flight sets. A sealed packet
// discarded unsent returns its buffer at once.
func TestFreeListBounded(t *testing.T) {
	k := sim.NewKernel(7)
	n := New(k)
	inFlight := make(map[*Packet]bool)
	sealed := make(map[*Packet]bool)
	var literals []*Packet
	if err := n.Attach(&FuncNode{Address: "lan:src"}, DefaultLAN()); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(&FuncNode{Address: "lan:dst", Fn: func(_ *Network, p *Packet) {
		delete(inFlight, p)
		delete(sealed, p)
	}}, DefaultLAN()); err != nil {
		t.Fatal(err)
	}
	freeLen := func() int {
		c := 0
		for f := n.free; f != nil; f = f.next {
			for _, l := range literals {
				if f == l {
					t.Fatal("literal packet on the free list")
				}
			}
			c++
		}
		return c
	}

	rng := rand.New(rand.NewSource(7))
	peak, peakBufs := 0, 0
	for burst := 0; burst < 300; burst++ {
		for i := rng.Intn(9); i > 0; i-- {
			p := n.NewPacket(Packet{Src: "lan:src", Dst: "lan:dst", Size: 10 + rng.Intn(500)})
			inFlight[p] = true
			peak = max(peak, len(inFlight))
			if rng.Intn(2) == 0 {
				p.Payload = append(n.PayloadBuffer(p), make([]byte, rng.Intn(40))...)
				sealed[p] = true
				peakBufs = max(peakBufs, len(sealed))
				if rng.Intn(8) == 0 {
					n.Discard(p)
					delete(inFlight, p)
					delete(sealed, p)
					continue
				}
			}
			n.Send(p)
		}
		if rng.Intn(4) == 0 {
			lit := &Packet{Src: "lan:src", Dst: "lan:dst", Size: 40, Payload: make([]byte, 8)}
			literals = append(literals, lit)
			n.Send(lit)
		}
		for s := rng.Intn(12); s > 0 && k.Step(); s-- {
			if got := freeLen(); got > peak {
				t.Fatalf("free list holds %d packets, peak in flight %d", got, peak)
			}
			if got := len(n.bufs); got > peakBufs {
				t.Fatalf("buffer list holds %d buffers, peak in flight %d", got, peakBufs)
			}
		}
	}
	for k.Step() {
	}
	if len(inFlight) != 0 {
		t.Fatalf("%d pooled packets never delivered", len(inFlight))
	}
	if got := freeLen(); got != peak {
		t.Errorf("free list holds %d packets after the run, want the peak in flight %d", got, peak)
	}
	if got := len(n.bufs); got != peakBufs || n.nbufs != peakBufs {
		t.Errorf("buffer list holds %d of %d buffers after the run, want the peak in flight %d", got, n.nbufs, peakBufs)
	}
	for _, b := range n.bufs {
		for _, c := range b[:cap(b)] {
			if c != payloadPoison && c != 0 {
				t.Fatalf("free buffer holds %x, want poison", b[:cap(b)])
			}
		}
	}
}

// TestPacketSize: the city embeds 200,000 packets, so the ownership
// flags must keep sharing one word.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 168 {
		t.Errorf("Packet is %d bytes, want 168", got)
	}
}
