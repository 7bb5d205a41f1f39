package dnsp

import (
	"testing"
	"time"

	"xlf/internal/channel"
	"xlf/internal/device"
	"xlf/internal/lwc"
	"xlf/internal/netsim"
	"xlf/internal/sim"
)

// sessions derives the two directions of a bulb-class channel from one
// pairing key: up (device→bridge) and down (bridge→device).
func sessions(t *testing.T, key string) (up, down *channel.Session) {
	t.Helper()
	bulb, err := device.ProfileByName("Philips Hue Lightbulb")
	if err != nil {
		t.Fatal(err)
	}
	reg := lwc.NewRegistry()
	if up, err = channel.ForProfile(bulb, reg, []byte(key+"/up")); err != nil {
		t.Fatal(err)
	}
	if down, err = channel.ForProfile(bulb, reg, []byte(key+"/down")); err != nil {
		t.Fatal(err)
	}
	return up, down
}

// bridgeFixture wires device stub -> bridge -> DoT resolver -> DNS server.
type bridgeFixture struct {
	kernel *sim.Kernel
	net    *netsim.Network
	stub   *Stub
	bridge *Bridge
	lanCap *netsim.Capture
	wanCap *netsim.Capture
}

func buildBridge(t *testing.T) *bridgeFixture {
	t.Helper()
	k := sim.NewKernel(77)
	n := netsim.New(k)
	f := &bridgeFixture{kernel: k, net: n, lanCap: netsim.NewCapture(), wanCap: netsim.NewCapture()}

	srv := netsim.NewDNSServer("wan:dns", []netsim.DNSRecord{
		{Name: "api.nest.example", Addr: "wan:nest", TTL: time.Minute},
	})
	res := netsim.NewResolver("lan:resolver", "wan:dns", "DoT")

	up, down := sessions(t, "dns-pairing")
	f.bridge = NewBridge("lan:dnsbridge", up, down, res)
	f.stub = NewStub("lan:thermo", "lan:dnsbridge", up, down)

	dev := &netsim.FuncNode{Address: "lan:thermo", Fn: func(_ *netsim.Network, pkt *netsim.Packet) {
		f.stub.HandleResponse(pkt)
	}}

	for _, node := range []netsim.Node{srv, res, f.bridge, dev} {
		link := netsim.DefaultLAN()
		if node.Addr() == "wan:dns" {
			link = netsim.DefaultWAN()
		}
		if err := n.Attach(node, link); err != nil {
			t.Fatal(err)
		}
	}
	n.AddTap(netsim.TapLAN, f.lanCap.Tap())
	n.AddTap(netsim.TapWAN, f.wanCap.Tap())
	return f
}

func TestBridgeEndToEnd(t *testing.T) {
	f := buildBridge(t)
	var got netsim.Addr
	var gotErr error
	if err := f.stub.Query(f.net, "api.nest.example", func(a netsim.Addr, err error) { got, gotErr = a, err }); err != nil {
		t.Fatal(err)
	}
	f.kernel.Run(5 * time.Second)
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got != "wan:nest" {
		t.Errorf("resolved %q, want wan:nest", got)
	}
	served, rejected := f.bridge.Stats()
	if served != 1 || rejected != 0 {
		t.Errorf("bridge stats = %d/%d", served, rejected)
	}
}

func TestBridgeHidesNamesFromObservers(t *testing.T) {
	f := buildBridge(t)
	f.stub.Query(f.net, "api.nest.example", func(netsim.Addr, error) {})
	f.kernel.Run(5 * time.Second)
	for _, r := range append(f.lanCap.Records(), f.wanCap.Records()...) {
		if r.DNSName != "" {
			t.Errorf("observer saw DNS name %q on %s->%s proto=%s", r.DNSName, r.Src, r.Dst, r.Proto)
		}
	}
}

func TestBridgeNXDomain(t *testing.T) {
	f := buildBridge(t)
	var gotErr error
	f.stub.Query(f.net, "ghost.example", func(a netsim.Addr, err error) { gotErr = err })
	f.kernel.Run(5 * time.Second)
	if gotErr == nil {
		t.Error("NXDOMAIN not propagated through the bridge")
	}
}

func TestBridgeRejectsTamperedQueries(t *testing.T) {
	f := buildBridge(t)
	// An on-LAN attacker sends a mangled sealed query.
	forger, _ := sessions(t, "dns-pairing")
	sealed, err := forger.Seal(nil, []byte("api.nest.example"))
	if err != nil {
		t.Fatal(err)
	}
	sealed[10] ^= 0xFF
	f.net.Send(&netsim.Packet{
		Src: "lan:attacker", Dst: "lan:dnsbridge", SrcPort: 4444, DstPort: 8853,
		Proto: "XLF-DNS", Size: 60, Encrypted: true, Payload: sealed,
	})
	f.kernel.Run(5 * time.Second)
	_, rejected := f.bridge.Stats()
	if rejected != 1 {
		t.Errorf("rejected = %d, want 1", rejected)
	}
}

func TestBridgeRejectsReplayedQuery(t *testing.T) {
	f := buildBridge(t)
	// An on-LAN observer captures the device's sealed query...
	var captured *netsim.Packet
	f.net.AddTap(netsim.TapLAN, func(_ netsim.TapDirection, pkt *netsim.Packet) {
		if pkt.App == "xlf-dns-query" && captured == nil {
			cp := *pkt
			cp.Payload = append([]byte(nil), pkt.Payload...)
			captured = &cp
		}
	})
	if err := f.stub.Query(f.net, "api.nest.example", func(netsim.Addr, error) {}); err != nil {
		t.Fatal(err)
	}
	f.kernel.Run(5 * time.Second)
	if captured == nil {
		t.Fatal("no sealed query on the LAN")
	}
	// ...and sends it to the bridge a second time.
	f.net.Send(captured)
	f.kernel.Run(10 * time.Second)
	served, rejected := f.bridge.Stats()
	if served != 1 || rejected != 1 {
		t.Errorf("bridge stats = %d served / %d rejected, want 1/1", served, rejected)
	}
}

// TestStubIgnoresForgedReply: a LAN host that sends garbage to the stub's
// predictable query port before the bridge answers does not end the
// query; the real reply still arrives, exactly once.
func TestStubIgnoresForgedReply(t *testing.T) {
	f := buildBridge(t)
	var calls []netsim.Addr
	var errs []error
	if err := f.stub.Query(f.net, "api.nest.example", func(a netsim.Addr, err error) {
		calls, errs = append(calls, a), append(errs, err)
	}); err != nil {
		t.Fatal(err)
	}
	f.net.Send(&netsim.Packet{
		Src: "lan:attacker", Dst: "lan:thermo", SrcPort: 8853, DstPort: 30001,
		Proto: "XLF-DNS", Size: 70, Encrypted: true, Payload: make([]byte, 30),
	})
	f.kernel.Run(5 * time.Second)
	if len(calls) != 1 || errs[0] != nil || calls[0] != "wan:nest" {
		t.Errorf("callbacks = %v (errors %v), want exactly one with wan:nest", calls, errs)
	}
}
