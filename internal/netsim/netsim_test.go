package netsim

import (
	"testing"
	"time"

	"xlf/internal/sim"
)

// sink keeps copies: a handler may read a packet only during the call,
// since the network recycles pooled packets after it.
type sink struct {
	addr Addr
	got  []Packet
}

func (s *sink) Addr() Addr                   { return s.addr }
func (s *sink) Handle(_ *Network, p *Packet) { s.got = append(s.got, *p) }

func newTestNet(t *testing.T) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel(42)
	return k, New(k)
}

func TestSendDeliver(t *testing.T) {
	k, n := newTestNet(t)
	a := &sink{addr: "lan:a"}
	b := &sink{addr: "lan:b"}
	if err := n.Attach(a, DefaultLAN()); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(b, DefaultLAN()); err != nil {
		t.Fatal(err)
	}
	n.Send(&Packet{Src: "lan:a", Dst: "lan:b", Size: 100, Proto: "HTTP"})
	k.Run(time.Second)
	if len(b.got) != 1 {
		t.Fatalf("b received %d packets, want 1", len(b.got))
	}
	p := b.got[0]
	if p.DeliveredAt <= p.SentAt {
		t.Error("no transmission delay modeled")
	}
	delivered, dropped, bytes := n.Stats()
	if delivered != 1 || dropped != 0 || bytes != 100 {
		t.Errorf("stats = %d/%d/%d, want 1/0/100", delivered, dropped, bytes)
	}
}

func TestAttachDuplicateRejected(t *testing.T) {
	_, n := newTestNet(t)
	a := &sink{addr: "lan:a"}
	if err := n.Attach(a, DefaultLAN()); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(a, DefaultLAN()); err == nil {
		t.Error("duplicate attach accepted")
	}
	if err := n.Attach(&sink{addr: ""}, DefaultLAN()); err == nil {
		t.Error("empty address accepted")
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	k, n := newTestNet(t)
	a := &sink{addr: "lan:a"}
	n.Attach(a, DefaultLAN())
	n.Send(&Packet{Src: "lan:a", Dst: "lan:ghost", Size: 50})
	k.Run(time.Second)
	_, dropped, _ := n.Stats()
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
}

func TestLossyLink(t *testing.T) {
	k, n := newTestNet(t)
	a := &sink{addr: "lan:a"}
	b := &sink{addr: "lan:b"}
	lossy := DefaultLAN()
	lossy.Loss = 0.5
	n.Attach(a, lossy)
	n.Attach(b, DefaultLAN())
	for i := 0; i < 200; i++ {
		n.Send(&Packet{Src: "lan:a", Dst: "lan:b", Size: 10})
	}
	k.Run(time.Minute)
	if got := len(b.got); got < 20 || got > 180 {
		t.Errorf("received %d/200 with 50%% loss, wildly off", got)
	}
}

func TestBandwidthSerialisation(t *testing.T) {
	k, n := newTestNet(t)
	slow := Link{Latency: 0, Bandwidth: 1000} // 1 KB/s
	b := &sink{addr: "lan:b"}
	n.Attach(&sink{addr: "lan:a"}, slow)
	n.Attach(b, Link{})
	n.Send(&Packet{Src: "lan:a", Dst: "lan:b", Size: 500})
	k.Run(10 * time.Second)
	if len(b.got) != 1 {
		t.Fatal("packet lost")
	}
	if d := b.got[0].DeliveredAt; d < 450*time.Millisecond || d > 550*time.Millisecond {
		t.Errorf("500B over 1KB/s delivered at %s, want ~500ms", d)
	}
}

func TestZigbeeSlowerThanWiFi(t *testing.T) {
	k, n := newTestNet(t)
	zb := &sink{addr: "lan:zb"}
	wifi := &sink{addr: "lan:wifi"}
	dst1 := &sink{addr: "lan:d1"}
	dst2 := &sink{addr: "lan:d2"}
	n.Attach(zb, DefaultZigbee())
	n.Attach(wifi, DefaultLAN())
	n.Attach(dst1, Link{})
	n.Attach(dst2, Link{})
	n.Send(&Packet{Src: "lan:zb", Dst: "lan:d1", Size: 1000})
	n.Send(&Packet{Src: "lan:wifi", Dst: "lan:d2", Size: 1000})
	k.Run(time.Minute)
	if len(dst1.got) != 1 || len(dst2.got) != 1 {
		t.Fatal("packets lost")
	}
	if dst1.got[0].DeliveredAt <= dst2.got[0].DeliveredAt {
		t.Error("zigbee not slower than wifi for same payload")
	}
}

func TestTapsSeeCorrectSides(t *testing.T) {
	k, n := newTestNet(t)
	n.Attach(&sink{addr: "lan:a"}, DefaultLAN())
	n.Attach(&sink{addr: "wan:cloud"}, DefaultWAN())
	lan := NewCapture()
	wan := NewCapture()
	n.AddTap(TapLAN, lan.Tap())
	n.AddTap(TapWAN, wan.Tap())

	n.Send(&Packet{Src: "lan:a", Dst: "wan:cloud", Size: 10}) // crosses both
	n.Send(&Packet{Src: "lan:a", Dst: "lan:a", Size: 10})     // LAN only
	k.Run(time.Second)

	if lan.Len() != 2 {
		t.Errorf("LAN tap saw %d, want 2", lan.Len())
	}
	if wan.Len() != 1 {
		t.Errorf("WAN tap saw %d, want 1", wan.Len())
	}
}

func TestCaptureHidesEncryptedContent(t *testing.T) {
	k, n := newTestNet(t)
	n.Attach(&sink{addr: "lan:a"}, DefaultLAN())
	n.Attach(&sink{addr: "lan:b"}, DefaultLAN())
	cap := NewCapture()
	cap.IncludePayloads = true
	n.AddTap(TapLAN, cap.Tap())
	n.Send(&Packet{Src: "lan:a", Dst: "lan:b", Size: 64, Encrypted: true, DNSName: "secret.example", Payload: []byte("secret")})
	n.Send(&Packet{Src: "lan:a", Dst: "lan:b", Size: 64, Proto: "DNS", DNSName: "visible.example", Payload: []byte("plain")})
	k.Run(time.Second)
	recs := cap.Records()
	if len(recs) != 2 {
		t.Fatalf("captured %d, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Encrypted && (r.DNSName != "" || r.Payload != nil) {
			t.Error("capture leaked encrypted content")
		}
		if !r.Encrypted && r.DNSName == "" {
			t.Error("capture dropped cleartext DNS name")
		}
	}
}

func TestGatewayNAT(t *testing.T) {
	k, n := newTestNet(t)
	gw := NewGateway("lan:gw", "wan:home")
	cloud := &sink{addr: "wan:cloud"}
	dev := &sink{addr: "lan:dev"}
	n.Attach(gw, DefaultLAN())
	n.Attach(gw.WANNode(), DefaultWAN())
	n.Attach(cloud, DefaultWAN())
	n.Attach(dev, DefaultLAN())

	err := gw.SendOut(n, &Packet{Src: "lan:dev", SrcPort: 1234, Dst: "wan:cloud", DstPort: 443, Size: 80})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(time.Second)
	if len(cloud.got) != 1 {
		t.Fatalf("cloud received %d, want 1", len(cloud.got))
	}
	out := cloud.got[0]
	if out.Src != "wan:home" {
		t.Errorf("NAT src = %q, want wan:home", out.Src)
	}
	ext, ok := gw.natOut[natKey{lanSrc: "lan:dev", lanPort: 1234, dst: "wan:cloud", dstPort: 443}]
	if !ok || out.SrcPort != ext {
		t.Errorf("external port mapping inconsistent: pkt=%d map=%d", out.SrcPort, ext)
	}

	// Reply path: cloud answers to the external port; the device gets it.
	n.Send(&Packet{Src: "wan:cloud", SrcPort: 443, Dst: "wan:home", DstPort: ext, Size: 80})
	k.Run(2 * time.Second)
	if len(dev.got) != 1 {
		t.Fatalf("device received %d replies, want 1", len(dev.got))
	}
	if dev.got[0].DstPort != 1234 {
		t.Errorf("un-NATted port = %d, want 1234", dev.got[0].DstPort)
	}
}

// TestSendOutOwnership pins SendOut's single-copy rewrite: the outbound
// policy and OnForward read the packet with its LAN source, and the WAN
// tap (and the receiver) see that same packet rewritten to the gateway's
// address and external port.
func TestSendOutOwnership(t *testing.T) {
	k, n := newTestNet(t)
	gw := NewGateway("lan:gw", "wan:home")
	cloud := &sink{addr: "wan:cloud"}
	n.Attach(gw, DefaultLAN())
	n.Attach(gw.WANNode(), DefaultWAN())
	n.Attach(cloud, DefaultWAN())

	var policySrc, forwardSrc Addr
	var policyPort, forwardPort int
	gw.OutboundPolicy = func(p *Packet) error { policySrc, policyPort = p.Src, p.SrcPort; return nil }
	gw.OnForward = func(p *Packet) { forwardSrc, forwardPort = p.Src, p.SrcPort }
	var tapped []*Packet
	var tapSrc Addr
	var tapPort int
	n.AddTap(TapWAN, func(_ TapDirection, p *Packet) {
		tapped = append(tapped, p)
		tapSrc, tapPort = p.Src, p.SrcPort
	})

	pkt := &Packet{Src: "lan:dev", SrcPort: 7443, Dst: "wan:cloud", DstPort: 443, Size: 80, Payload: []byte("sealed")}
	if err := gw.SendOut(n, pkt); err != nil {
		t.Fatal(err)
	}
	k.Run(time.Second)
	if policySrc != "lan:dev" || policyPort != 7443 {
		t.Errorf("OutboundPolicy saw %s:%d, want lan:dev:7443", policySrc, policyPort)
	}
	if forwardSrc != "lan:dev" || forwardPort != 7443 {
		t.Errorf("OnForward saw %s:%d, want lan:dev:7443", forwardSrc, forwardPort)
	}
	ext, ok := gw.natOut[natKey{lanSrc: "lan:dev", lanPort: 7443, dst: "wan:cloud", dstPort: 443}]
	if !ok || tapSrc != "wan:home" || tapPort != ext {
		t.Errorf("WAN tap saw %s:%d, want wan:home:%d", tapSrc, tapPort, ext)
	}
	if len(tapped) != 1 || tapped[0] != pkt || len(cloud.got) != 1 {
		t.Error("SendOut did not send the caller's packet itself")
	}
}

func TestGatewayPolicies(t *testing.T) {
	k, n := newTestNet(t)
	gw := NewGateway("lan:gw", "wan:home")
	cloud := &sink{addr: "wan:evil"}
	n.Attach(gw, DefaultLAN())
	n.Attach(gw.WANNode(), DefaultWAN())
	n.Attach(cloud, DefaultWAN())
	n.Attach(&sink{addr: "lan:dev"}, DefaultLAN())

	gw.OutboundPolicy = func(p *Packet) error {
		if p.Dst == "wan:evil" {
			return errBlocked
		}
		return nil
	}
	err := gw.SendOut(n, &Packet{Src: "lan:dev", Dst: "wan:evil", DstPort: 80, Size: 10})
	if err == nil {
		t.Fatal("policy did not block")
	}
	k.Run(time.Second)
	if len(cloud.got) != 0 {
		t.Error("blocked packet delivered")
	}
	bo, _ := gw.Blocked()
	if bo != 1 {
		t.Errorf("blockedOut = %d, want 1", bo)
	}

	// Unsolicited inbound to an unmapped port is dropped.
	n.Send(&Packet{Src: "wan:evil", Dst: "wan:home", DstPort: 9999, Size: 10})
	k.Run(2 * time.Second)
	_, bi := gw.Blocked()
	if bi != 1 {
		t.Errorf("blockedIn = %d, want 1", bi)
	}
}

var errBlocked = &policyError{"blocked by NAC"}

type policyError struct{ s string }

func (e *policyError) Error() string { return e.s }

func TestDNSResolution(t *testing.T) {
	k, n := newTestNet(t)
	srv := NewDNSServer("wan:dns", []DNSRecord{{Name: "api.nest.example", Addr: "wan:nest", TTL: time.Minute}})
	res := NewResolver("lan:resolver", "wan:dns", "DNS")
	n.Attach(srv, DefaultWAN())
	n.Attach(res, DefaultLAN())

	var got Addr
	var gotErr error
	res.Lookup(n, "api.nest.example", func(a Addr, err error) { got, gotErr = a, err })
	k.Run(time.Second)
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got != "wan:nest" {
		t.Errorf("resolved %q, want wan:nest", got)
	}

	// Second lookup hits the cache (no new upstream query).
	res.Lookup(n, "api.nest.example", func(a Addr, err error) { got = a })
	k.Run(2 * time.Second)
	hits, misses, _ := res.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("resolver stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestDNSNXDomain(t *testing.T) {
	k, n := newTestNet(t)
	srv := NewDNSServer("wan:dns", nil)
	res := NewResolver("lan:resolver", "wan:dns", "DNS")
	n.Attach(srv, DefaultWAN())
	n.Attach(res, DefaultLAN())
	var gotErr error
	res.Lookup(n, "ghost.example", func(a Addr, err error) { gotErr = err })
	k.Run(time.Second)
	if gotErr == nil {
		t.Error("NXDOMAIN not surfaced")
	}
}

func TestDNSCachePoisoning(t *testing.T) {
	k, n := newTestNet(t)
	n.Attach(NewDNSServer("wan:dns", []DNSRecord{{Name: "fw.vendor.example", Addr: "wan:vendor", TTL: time.Minute}}), DefaultWAN())

	run := func(mode string) (Addr, bool) {
		res := NewResolver(Addr("lan:res-"+mode), "wan:dns", mode)
		n.Attach(res, DefaultLAN())
		// Off-path attacker races the legitimate answer with a forged
		// response that arrives first (tiny latency).
		n.Send(&Packet{
			Src: "wan:attacker", Dst: res.Addr(), SrcPort: 53, DstPort: 5353,
			Proto: "DNS", Size: 120, DNSName: "fw.vendor.example", Payload: []byte("wan:attacker-fw"),
		})
		var got Addr
		res.Lookup(n, "fw.vendor.example", func(a Addr, err error) { got = a })
		k.Run(k.Now() + 5*time.Second)
		// A repeat lookup is served from the cache; Stats counts it as
		// poisoned when the forgery won the race.
		res.Lookup(n, "fw.vendor.example", func(Addr, error) {})
		_, _, poisoned := res.Stats()
		return got, poisoned > 0
	}

	if _, poisoned := run("DNS"); !poisoned {
		t.Error("cleartext DNS resisted off-path poisoning (should be vulnerable)")
	}
	if _, poisoned := run("DoT"); poisoned {
		t.Error("DoT accepted an off-path forgery")
	}
}

func TestBroadcast(t *testing.T) {
	k, n := newTestNet(t)
	var sinks []*sink
	for _, a := range []Addr{"lan:a", "lan:b", "lan:c", "wan:x"} {
		s := &sink{addr: a}
		sinks = append(sinks, s)
		n.Attach(s, DefaultLAN())
	}
	n.Broadcast("lan:a", func(dst Addr) *Packet {
		return &Packet{Src: "lan:a", Dst: dst, Proto: "UPnP", Size: 40}
	})
	k.Run(time.Second)
	if len(sinks[0].got) != 0 {
		t.Error("sender received its own broadcast")
	}
	if len(sinks[1].got) != 1 || len(sinks[2].got) != 1 {
		t.Error("LAN nodes missed broadcast")
	}
	if len(sinks[3].got) != 0 {
		t.Error("broadcast leaked to WAN")
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{Src: "lan:a", Payload: []byte{1, 2, 3}}
	q := p.Clone()
	q.Payload[0] = 9
	if p.Payload[0] != 1 {
		t.Error("Clone shares payload")
	}
}
