// Package netsim is the discrete-event packet network under the XLF
// testbed: nodes, lossy/latency links, a NAT smart gateway, DNS, and
// packet taps. It substitutes for the paper's real home networks (see
// DESIGN.md): XLF's network-layer functions consume packet metadata —
// sizes, timing, endpoints, DNS names — which this simulator produces
// deterministically on a sim.Kernel.
//
// Packets have one owner. Network.Send and Gateway.SendOut take
// ownership of every packet handed to them. Taps, OutboundPolicy,
// OnForward and Node.Handle may read a packet only during the call. A
// packet from Network.NewPacket is pooled: the network releases it to
// its free list once done with it — after deliver's taps and Handle, on
// a loss or no-node drop, and when SendOut refuses it — and poisons it,
// so a later Send or a second release panics. A packet not from
// NewPacket is never recycled; its sender may reuse it once it has been
// delivered.
//
// Payloads follow the same rule. Network.PayloadBuffer hands a pooled
// packet an empty buffer from the network's free list of payload
// buffers; its sender appends the payload into it (channel.Session.Seal
// takes it as dst) and stores the result in Payload. From then on the
// network owns Payload as it owns the packet: when it releases the
// packet it poisons the buffer and keeps it for the next PayloadBuffer,
// and Network.Discard gives back a packet its sender will not send. So
// no tap, hook or handler may keep a Payload slice, or anything aliasing
// it, past its call; one that needs the bytes later copies them. A
// Payload the sender set itself (a literal, a constant plaintext, a DNS
// answer, a cleartext event) is never recycled, so observers that alias
// cleartext payloads stay safe.
package netsim

import (
	"fmt"
	"slices"
	"time"

	"xlf/internal/obs"
	"xlf/internal/sim"
)

// Addr is a node address. LAN addresses conventionally look like
// "lan:bulb-1"; WAN addresses like "wan:cloud.example".
type Addr string

// IsLAN reports whether the address is on the home side of the gateway.
func (a Addr) IsLAN() bool { return len(a) >= 4 && a[:4] == "lan:" }

// Packet is the unit of transmission. Fields are metadata the XLF network
// layer can observe; Payload is opaque application data (possibly
// encrypted).
type Packet struct {
	ID       uint64
	Src, Dst Addr
	SrcPort  int
	DstPort  int
	// Proto names the protocol from the proto registry ("DNS", "TLS",
	// "HTTP", "MQTT", ...).
	Proto string
	// Size is the on-wire size in bytes (headers included).
	Size int
	// Encrypted marks payload confidentiality (TLS/DTLS channels).
	Encrypted bool
	// Dummy marks cover traffic injected by the traffic shaper; receivers
	// discard it. Ground truth only — observers must not read it.
	Dummy bool
	// pooled marks a packet from Network.NewPacket, which the network
	// recycles once it is done with it.
	pooled bool
	// ownsPayload marks a Payload appended into a buffer from
	// Network.PayloadBuffer, which the network takes back with the
	// packet. The four flags share one word, so Packet stays 168 bytes.
	ownsPayload bool
	// DNSName is set on DNS queries/responses.
	DNSName string
	// Payload is application data; for encrypted packets this is the
	// ciphertext or searchable-encryption tokens. A Payload appended
	// into a PayloadBuffer belongs to the network (see the package doc).
	Payload []byte
	// App labels the logical message kind ("event:on", "ota", "cc-beacon",
	// ...); observers do NOT see this field — it is ground truth for
	// evaluation only.
	App string
	// SentAt/DeliveredAt are simulation timestamps.
	SentAt      time.Duration
	DeliveredAt time.Duration

	// next links the network's free list of released pooled packets.
	next *Packet
}

// released is the address a recycled packet is poisoned with: Send and
// release panic on it, so a use after release or a double release fails
// loudly instead of corrupting the free list.
const released Addr = "netsim:released"

// payloadPoison overwrites every byte of a payload buffer the network
// takes back, so a reader that kept the slice sees garbage instead of a
// later packet's bytes passing for its own.
const payloadPoison byte = 0xdb

// Clone returns a deep copy (payload included) that is not pooled, for
// the traffic shaper's continuation cells and dummies.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Payload = append([]byte(nil), p.Payload...)
	q.pooled, q.ownsPayload, q.next = false, false, nil
	return &q
}

// Node is anything attachable to the network.
type Node interface {
	// Addr returns the node's address; it must be stable and unique.
	Addr() Addr
	// Handle processes a delivered packet.
	Handle(net *Network, pkt *Packet)
}

// Link models the medium between a node and the network core.
type Link struct {
	Latency   time.Duration
	Jitter    time.Duration
	Bandwidth float64 // bytes per second; 0 = infinite
	Loss      float64 // probability in [0,1)
	// Medium names the radio/wire family ("802.15.4", "802.11", "wired").
	Medium string
}

// DefaultLAN is a home WiFi-ish link.
func DefaultLAN() Link {
	return Link{Latency: 2 * time.Millisecond, Jitter: time.Millisecond, Bandwidth: 2e6, Medium: "802.11"}
}

// DefaultZigbee is an 802.15.4 mesh link: slow and chatty.
func DefaultZigbee() Link {
	return Link{Latency: 8 * time.Millisecond, Jitter: 4 * time.Millisecond, Bandwidth: 31250, Medium: "802.15.4"}
}

// DefaultWAN is the uplink to the cloud.
func DefaultWAN() Link {
	return Link{Latency: 20 * time.Millisecond, Jitter: 5 * time.Millisecond, Bandwidth: 12.5e6, Medium: "wired"}
}

// TapDirection tells a tap where it saw the packet.
type TapDirection int

// Tap positions.
const (
	TapLAN TapDirection = iota + 1 // inside the home, pre-NAT
	TapWAN                         // outside the gateway, post-NAT
)

// Tap observes packets. Taps run synchronously at delivery time and must
// not mutate the packet.
type Tap func(dir TapDirection, pkt *Packet)

// Network is the packet-switching core bound to a simulation kernel.
type Network struct {
	kernel  *sim.Kernel
	nodes   map[Addr]Node
	links   map[Addr]Link
	lanTaps []Tap
	wanTaps []Tap
	nextID  uint64
	tracer  *obs.Tracer

	// deliverArg is the one long-lived dispatch closure handed to
	// sim.Kernel.ScheduleArg, so Send does not allocate a capturing
	// closure per packet.
	deliverArg func(any)

	// free lists released pooled packets, linked through Packet.next.
	// fresh, set only by tests, makes NewPacket always allocate and
	// PayloadBuffer always return nil: the reference the pooled network
	// is compared against.
	free  *Packet
	fresh bool
	// bufs holds released payload buffers, emptied and poisoned.
	// PayloadBuffer keeps its capacity at least nbufs, the number of
	// buffers it has started (one each time bufs was empty), so release
	// returns a buffer without growing it.
	bufs  [][]byte
	nbufs int

	// stats
	delivered uint64
	dropped   uint64
	bytes     uint64
}

// New creates an empty network on a kernel.
func New(k *sim.Kernel) *Network {
	n := &Network{
		kernel: k,
		nodes:  make(map[Addr]Node),
		links:  make(map[Addr]Link),
	}
	n.deliverArg = func(a any) { n.deliver(a.(*Packet)) }
	return n
}

// Kernel exposes the simulation kernel for nodes that schedule work.
func (n *Network) Kernel() *sim.Kernel { return n.kernel }

// Attach adds a node with its access link. Attaching a duplicate address
// is an error.
func (n *Network) Attach(node Node, link Link) error {
	a := node.Addr()
	if a == "" {
		return fmt.Errorf("netsim: node has empty address")
	}
	if _, dup := n.nodes[a]; dup {
		return fmt.Errorf("netsim: duplicate address %q", a)
	}
	n.nodes[a] = node
	n.links[a] = link
	return nil
}

// Detach removes a node (e.g., a device knocked offline by an attack).
func (n *Network) Detach(a Addr) {
	delete(n.nodes, a)
	delete(n.links, a)
}

// SetLink replaces an attached node's access link — used for failure
// injection (degrading a link's loss/latency mid-scenario) and for RF
// environment changes.
func (n *Network) SetLink(a Addr, link Link) error {
	if _, ok := n.nodes[a]; !ok {
		return fmt.Errorf("netsim: SetLink: no node at %q", a)
	}
	n.links[a] = link
	return nil
}

// LinkOf returns a node's current access link.
func (n *Network) LinkOf(a Addr) (Link, bool) {
	l, ok := n.links[a]
	return l, ok
}

// NodeAt returns the node bound to an address.
func (n *Network) NodeAt(a Addr) (Node, bool) {
	node, ok := n.nodes[a]
	return node, ok
}

// AddTap registers a packet observer at a tap point.
func (n *Network) AddTap(dir TapDirection, t Tap) {
	if dir == TapWAN {
		n.wanTaps = append(n.wanTaps, t)
	} else {
		n.lanTaps = append(n.lanTaps, t)
	}
}

// Stats returns (delivered, dropped, totalBytes).
func (n *Network) Stats() (uint64, uint64, uint64) {
	return n.delivered, n.dropped, n.bytes
}

// SetTracer attaches an observability tracer; sends, deliveries and drops
// then emit netsim-layer spans. Nil disables emission.
func (n *Network) SetTracer(t *obs.Tracer) { n.tracer = t }

// lanDevice extracts a device ID for span attribution: the LAN-side
// endpoint of the packet, if any, with the "lan:" prefix stripped.
// The substring of an Addr is a string-to-string conversion — no copy.
//
//xlf:hotpath
func lanDevice(pkt *Packet) string {
	if pkt.Src.IsLAN() {
		return string(pkt.Src[4:])
	}
	if pkt.Dst.IsLAN() {
		return string(pkt.Dst[4:])
	}
	return ""
}

// NewPacket returns a copy of tmpl that the network owns once it is sent
// and recycles when it is done with it (see the package doc). It reuses a
// released packet when one is free.
func (n *Network) NewPacket(tmpl Packet) *Packet {
	p := n.free
	if p != nil {
		n.free = p.next
	} else {
		p = new(Packet)
	}
	*p = tmpl
	p.pooled, p.ownsPayload, p.next = true, false, nil
	return p
}

// PayloadBuffer gives pkt, a packet from NewPacket that its caller has
// not sent yet, a payload buffer the network owns and returns it empty,
// reusing a released buffer's capacity when one is free (nil when none
// is). The caller appends the payload into it and stores the result in
// pkt.Payload; the network takes that buffer back when it releases pkt
// (see the package doc).
func (n *Network) PayloadBuffer(pkt *Packet) []byte {
	if !pkt.pooled || pkt.Src == released {
		panic("netsim: PayloadBuffer for a packet not from NewPacket")
	}
	var buf []byte
	if k := len(n.bufs) - 1; k >= 0 {
		buf, n.bufs[k] = n.bufs[k], nil
		n.bufs = n.bufs[:k]
	} else if !n.fresh {
		n.nbufs++
		n.bufs = slices.Grow(n.bufs, n.nbufs)
	}
	pkt.Payload, pkt.ownsPayload = buf, true
	return buf
}

// Discard releases a packet from NewPacket that its caller decides not
// to send, with the payload buffer PayloadBuffer gave it.
func (n *Network) Discard(pkt *Packet) { n.release(pkt) }

// release ends the network's use of a packet. A pooled packet is poisoned
// and goes onto the free list, and so does a payload buffer it owns; any
// other packet is left to its sender.
//
//xlf:hotpath
func (n *Network) release(pkt *Packet) {
	if pkt.Src == released {
		panic("netsim: packet released twice")
	}
	if !pkt.pooled {
		return
	}
	if buf := pkt.Payload; pkt.ownsPayload && !n.fresh && len(n.bufs) < cap(n.bufs) {
		for i := range buf {
			buf[i] = payloadPoison
		}
		n.bufs = n.bufs[:len(n.bufs)+1]
		n.bufs[len(n.bufs)-1] = buf[:0]
	}
	*pkt = Packet{Src: released, Dst: released}
	if !n.fresh {
		pkt.next = n.free
		n.free = pkt
	}
}

// Send queues a packet for delivery. Latency, serialisation delay, jitter
// and loss come from the sender's and receiver's links. Packets to unknown
// addresses are counted as drops. Send allocates nothing: the delivery
// event comes from the kernel's pooled slab, the dispatch reuses
// n.deliverArg instead of capturing pkt in a fresh closure, and the event
// name is a constant (the destination is on the packet for anyone who
// needs it). Send takes ownership of pkt and panics if it was released.
//
//xlf:hotpath
func (n *Network) Send(pkt *Packet) {
	if pkt.Src == released {
		panic("netsim: Send of a released packet")
	}
	n.nextID++
	pkt.ID = n.nextID
	pkt.SentAt = n.kernel.Now()

	sl, sok := n.links[pkt.Src]
	rl, rok := n.links[pkt.Dst]
	if !sok {
		sl = DefaultLAN()
	}
	if !rok {
		rl = sl
	}

	rng := n.kernel.Rand()
	if sl.Loss > 0 && rng.Float64() < sl.Loss {
		n.dropped++
		n.traceDrop(pkt, "loss:sender")
		n.release(pkt)
		return
	}
	if rl.Loss > 0 && rng.Float64() < rl.Loss {
		n.dropped++
		n.traceDrop(pkt, "loss:receiver")
		n.release(pkt)
		return
	}

	delay := sl.Latency + rl.Latency
	if sl.Jitter > 0 {
		delay += time.Duration(rng.Int63n(int64(sl.Jitter)))
	}
	if sl.Bandwidth > 0 {
		delay += time.Duration(float64(pkt.Size) / sl.Bandwidth * float64(time.Second))
	}
	if rl.Bandwidth > 0 {
		delay += time.Duration(float64(pkt.Size) / rl.Bandwidth * float64(time.Second))
	}

	if n.tracer != nil {
		n.tracer.EmitSpan(obs.Span{
			Time: pkt.SentAt, Layer: obs.LayerNetsim, Op: "send",
			Device: lanDevice(pkt), Cause: pkt.Proto, Detail: string(pkt.Dst),
		})
	}
	n.kernel.ScheduleArg(delay, "deliver", n.deliverArg, pkt)
}

// traceDrop emits a drop span when tracing is on.
//
//xlf:hotpath
func (n *Network) traceDrop(pkt *Packet, cause string) {
	if n.tracer == nil {
		return
	}
	n.tracer.EmitSpan(obs.Span{
		Time: n.kernel.Now(), Layer: obs.LayerNetsim, Op: "drop",
		Device: lanDevice(pkt), Cause: cause, Detail: pkt.Proto,
	})
}

// deliver hands a packet to taps and its destination node, then releases
// it.
//
//xlf:hotpath
func (n *Network) deliver(pkt *Packet) {
	pkt.DeliveredAt = n.kernel.Now()
	n.delivered++
	n.bytes += uint64(pkt.Size)

	// Tap placement: traffic with a LAN endpoint is visible to the LAN
	// tap; traffic with a WAN endpoint is visible to the WAN tap. A
	// LAN->WAN packet hits both (it traverses the gateway).
	if pkt.Src.IsLAN() || pkt.Dst.IsLAN() {
		for _, t := range n.lanTaps {
			t(TapLAN, pkt)
		}
	}
	if !pkt.Src.IsLAN() || !pkt.Dst.IsLAN() {
		for _, t := range n.wanTaps {
			t(TapWAN, pkt)
		}
	}

	node, ok := n.nodes[pkt.Dst]
	if !ok {
		n.dropped++
		n.traceDrop(pkt, "no-node")
		n.release(pkt)
		return
	}
	if n.tracer != nil {
		n.tracer.EmitSpan(obs.Span{
			Time: pkt.DeliveredAt, Dur: pkt.DeliveredAt - pkt.SentAt,
			Layer: obs.LayerNetsim, Op: "deliver",
			Device: lanDevice(pkt), Cause: pkt.Proto, Detail: string(pkt.Dst),
		})
	}
	node.Handle(n, pkt)
	n.release(pkt)
}

// Broadcast delivers a packet to every LAN node except the sender —
// UPnP/SSDP-style discovery chatter. Destinations go in address order:
// each Send draws its link delay from the kernel RNG, so map order would
// make a seeded run's delays differ from run to run.
func (n *Network) Broadcast(src Addr, mk func(dst Addr) *Packet) {
	dsts := make([]Addr, 0, len(n.nodes))
	for a := range n.nodes {
		if a != src && a.IsLAN() {
			dsts = append(dsts, a)
		}
	}
	slices.Sort(dsts)
	for _, a := range dsts {
		n.Send(mk(a))
	}
}

// FuncNode adapts a handler function into a Node; useful for cloud
// endpoints and attackers.
type FuncNode struct {
	Address Addr
	Fn      func(net *Network, pkt *Packet)
}

var _ Node = (*FuncNode)(nil)

// Addr implements Node.
func (f *FuncNode) Addr() Addr { return f.Address }

// Handle implements Node.
func (f *FuncNode) Handle(net *Network, pkt *Packet) {
	if f.Fn != nil {
		f.Fn(net, pkt)
	}
}
