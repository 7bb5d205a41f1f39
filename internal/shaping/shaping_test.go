package shaping

import (
	"testing"
	"time"

	"xlf/internal/netsim"
	"xlf/internal/sim"
)

func TestLevelConfigs(t *testing.T) {
	if Level(0).Mode != ModeOff {
		t.Error("level 0 not off")
	}
	if Level(0.2).Mode != ModeDelay {
		t.Error("level 0.2 not delay")
	}
	if Level(0.5).Mode != ModePad {
		t.Error("level 0.5 not pad")
	}
	c := Level(1.0)
	if c.Mode != ModeCombined || c.Interval <= 0 {
		t.Errorf("level 1 config = %+v", c)
	}
	if Level(0.7).Interval <= Level(1.0).Interval {
		t.Error("higher intensity should mean faster cadence")
	}
}

func TestStatsAccounting(t *testing.T) {
	s := Stats{RealPackets: 10, RealBytes: 1000, PaddedBytes: 200, DummyBytes: 300, TotalDelay: time.Second}
	if got := s.OverheadFraction(); got != 0.5 {
		t.Errorf("overhead = %v, want 0.5", got)
	}
	if got := s.MeanDelay(); got != 100*time.Millisecond {
		t.Errorf("mean delay = %v, want 100ms", got)
	}
	var zero Stats
	if zero.OverheadFraction() != 0 || zero.MeanDelay() != 0 {
		t.Error("zero stats not safe")
	}
}

func TestScoreEvents(t *testing.T) {
	truth := []GroundTruthEvent{{Time: 10 * time.Second}, {Time: 30 * time.Second}}
	inferred := []InferredEvent{{Time: 11 * time.Second}, {Time: 55 * time.Second}}
	p, r := ScoreEvents(inferred, truth, 2*time.Second)
	if p != 0.5 || r != 0.5 {
		t.Errorf("p/r = %v/%v, want 0.5/0.5", p, r)
	}
	p, r = ScoreEvents(nil, truth, time.Second)
	if p != 1 || r != 0 {
		t.Errorf("empty inference p/r = %v/%v", p, r)
	}
	p, r = ScoreEvents(nil, nil, time.Second)
	if p != 1 || r != 1 {
		t.Errorf("vacuous p/r = %v/%v", p, r)
	}
	// One truth event must not be double-counted by two inferences.
	p, _ = ScoreEvents([]InferredEvent{{Time: 10 * time.Second}, {Time: 10 * time.Second}}, truth[:1], time.Second)
	if p != 0.5 {
		t.Errorf("double-count precision = %v, want 0.5", p)
	}
}

// homeFixture builds a gateway-fronted home where one camera streams to
// its vendor cloud and emits event bursts at known times.
type homeFixture struct {
	kernel *sim.Kernel
	net    *netsim.Network
	gw     *netsim.Gateway
	wanCap *netsim.Capture
	truth  []GroundTruthEvent
}

func buildHome(t *testing.T, shaper *Shaper) *homeFixture {
	t.Helper()
	k := sim.NewKernel(1234)
	n := netsim.New(k)
	gw := netsim.NewGateway("lan:gw", "wan:home")
	if shaper != nil {
		gw.Shaper = shaper.GatewayHook()
	}
	f := &homeFixture{kernel: k, net: n, gw: gw, wanCap: netsim.NewCapture()}
	mustAttach(t, n, gw, netsim.DefaultLAN())
	mustAttach(t, n, gw.WANNode(), netsim.DefaultWAN())
	mustAttach(t, n, &netsim.FuncNode{Address: "wan:cam-cloud"}, netsim.DefaultWAN())
	mustAttach(t, n, &netsim.FuncNode{Address: "lan:cam"}, netsim.DefaultLAN())
	n.AddTap(netsim.TapWAN, f.wanCap.Tap())

	// Cleartext DNS lookup first (identification signal).
	n.Send(&netsim.Packet{Src: "lan:gw", Dst: "wan:dns", SrcPort: 5353, DstPort: 53, Proto: "DNS", Size: 80, DNSName: "cam.vendor.example", App: "dns-query"})

	// Steady keepalive at ~200 B/s + event bursts at 60s and 180s.
	k.Every(2*time.Second, 500*time.Millisecond, "keepalive", func() {
		gw.SendOut(n, &netsim.Packet{Src: "lan:cam", SrcPort: 7001, Dst: "wan:cam-cloud", DstPort: 443, Proto: "TLS", Encrypted: true, Size: 400})
	})
	for _, at := range []time.Duration{60 * time.Second, 180 * time.Second} {
		at := at
		f.truth = append(f.truth, GroundTruthEvent{Time: at, DeviceType: "camera"})
		k.Schedule(at, "motion-burst", func() {
			for i := 0; i < 12; i++ {
				gw.SendOut(n, &netsim.Packet{Src: "lan:cam", SrcPort: 7001, Dst: "wan:cam-cloud", DstPort: 443, Proto: "TLS", Encrypted: true, Size: 1200, App: "event:motion"})
			}
		})
	}
	return f
}

func mustAttach(t *testing.T, n *netsim.Network, node netsim.Node, l netsim.Link) {
	t.Helper()
	if err := n.Attach(node, l); err != nil {
		t.Fatal(err)
	}
}

func camKB() KnowledgeBase {
	return KnowledgeBase{
		DomainType: map[string]string{"cam.vendor.example": "camera"},
		DomainAddr: map[string]netsim.Addr{"cam.vendor.example": "wan:cam-cloud"},
		RateBand:   map[string][2]float64{"camera": {50, 2000}},
	}
}

func TestAdversaryWinsWithoutShaping(t *testing.T) {
	f := buildHome(t, nil)
	f.kernel.Run(5 * time.Minute)
	adv := NewAdversary(camKB())
	ids := adv.IdentifyDevices(f.wanCap.Records())
	if len(ids) != 1 || ids[0].DeviceType != "camera" {
		t.Fatalf("identification = %+v, want camera", ids)
	}
	if ids[0].Confidence < 0.8 {
		t.Errorf("confidence = %v, want high without shaping", ids[0].Confidence)
	}
	events := adv.InferEvents(f.wanCap.Records())
	_, recall := ScoreEvents(events, f.truth, 3*time.Second)
	if recall < 0.99 {
		t.Errorf("event recall = %v without shaping, want ~1", recall)
	}
}

func TestShapingDegradesAdversary(t *testing.T) {
	// Unshaped baseline.
	f0 := buildHome(t, nil)
	f0.kernel.Run(5 * time.Minute)
	adv := NewAdversary(camKB())
	ev0 := adv.InferEvents(f0.wanCap.Records())
	_, recall0 := ScoreEvents(ev0, f0.truth, 3*time.Second)

	// Full shaping (rate equalisation).
	fs := buildHomeWithShaper(t, Level(1))
	_, recallS := fs.run(t)

	if recallS >= recall0 {
		t.Errorf("shaping did not reduce event recall: %v -> %v", recall0, recallS)
	}
	if fs.shaper.Stats().OverheadFraction() <= 0 {
		t.Error("combined shaping reported zero overhead")
	}
}

type shapedHome struct {
	*homeFixture
	shaper *Shaper
}

func buildHomeWithShaper(t *testing.T, cfg Config) *shapedHome {
	t.Helper()
	k := sim.NewKernel(1234)
	sh := New(k, cfg)
	// Rebuild the fixture on the SAME kernel as the shaper.
	n := netsim.New(k)
	gw := netsim.NewGateway("lan:gw", "wan:home")
	gw.Shaper = sh.GatewayHook()
	f := &homeFixture{kernel: k, net: n, gw: gw, wanCap: netsim.NewCapture()}
	mustAttach(t, n, gw, netsim.DefaultLAN())
	mustAttach(t, n, gw.WANNode(), netsim.DefaultWAN())
	mustAttach(t, n, &netsim.FuncNode{Address: "wan:cam-cloud"}, netsim.DefaultWAN())
	mustAttach(t, n, &netsim.FuncNode{Address: "lan:cam"}, netsim.DefaultLAN())
	n.AddTap(netsim.TapWAN, f.wanCap.Tap())
	k.Every(2*time.Second, 500*time.Millisecond, "keepalive", func() {
		gw.SendOut(n, &netsim.Packet{Src: "lan:cam", SrcPort: 7001, Dst: "wan:cam-cloud", DstPort: 443, Proto: "TLS", Encrypted: true, Size: 400})
	})
	for _, at := range []time.Duration{60 * time.Second, 180 * time.Second} {
		at := at
		f.truth = append(f.truth, GroundTruthEvent{Time: at, DeviceType: "camera"})
		k.Schedule(at, "motion-burst", func() {
			for i := 0; i < 12; i++ {
				gw.SendOut(n, &netsim.Packet{Src: "lan:cam", SrcPort: 7001, Dst: "wan:cam-cloud", DstPort: 443, Proto: "TLS", Encrypted: true, Size: 1200, App: "event:motion"})
			}
		})
	}
	return &shapedHome{homeFixture: f, shaper: sh}
}

func (s *shapedHome) run(t *testing.T) (float64, float64) {
	t.Helper()
	s.kernel.Run(5 * time.Minute)
	adv := NewAdversary(camKB())
	ev := adv.InferEvents(s.wanCap.Records())
	return ScoreEvents(ev, s.truth, 3*time.Second)
}

func TestPaddingBlursSizes(t *testing.T) {
	k := sim.NewKernel(7)
	sh := New(k, Config{Mode: ModePad, PadBucket: 512})
	var sent []*netsim.Packet
	hook := sh.GatewayHook()
	for _, size := range []int{10, 100, 500, 513} {
		hook(&netsim.Packet{Size: size}, func(p *netsim.Packet) { sent = append(sent, p) })
	}
	k.Run(time.Minute)
	if len(sent) != 4 {
		t.Fatalf("sent %d, want 4", len(sent))
	}
	for i, p := range sent[:3] {
		if p.Size != 512 {
			t.Errorf("packet %d size = %d, want 512", i, p.Size)
		}
	}
	if sent[3].Size != 1024 {
		t.Errorf("oversize packet = %d, want 1024", sent[3].Size)
	}
	if sh.Stats().PaddedBytes != (512-10)+(512-100)+(512-500)+(1024-513) {
		t.Errorf("padded bytes = %d", sh.Stats().PaddedBytes)
	}
}

func TestDelayModeDelaysDeterministically(t *testing.T) {
	run := func() []time.Duration {
		k := sim.NewKernel(99)
		sh := New(k, Config{Mode: ModeDelay, MaxDelay: 200 * time.Millisecond})
		hook := sh.GatewayHook()
		var times []time.Duration
		for i := 0; i < 5; i++ {
			hook(&netsim.Packet{Size: 100}, func(p *netsim.Packet) { times = append(times, k.Now()) })
		}
		k.Run(time.Minute)
		return times
	}
	a, b := run(), run()
	if len(a) != 5 {
		t.Fatalf("delivered %d, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Error("delay schedule not deterministic across identical seeds")
		}
	}
	delayed := false
	for _, at := range a {
		if at > 0 {
			delayed = true
		}
	}
	if !delayed {
		t.Error("no packet was actually delayed")
	}
}

func TestConstantRateEqualisation(t *testing.T) {
	k := sim.NewKernel(5)
	sh := New(k, Config{Mode: ModeCombined, Interval: 100 * time.Millisecond, PadBucket: 256})
	hook := sh.GatewayHook()
	var emissions []time.Duration
	var real, dummy int
	send := func(p *netsim.Packet) {
		emissions = append(emissions, k.Now())
		if p.Dummy {
			dummy++
			if p.App != "" || p.Payload != nil {
				t.Error("dummy leaked application data")
			}
			if p.Size != 256 {
				t.Errorf("dummy size = %d, want 256", p.Size)
			}
		} else {
			real++
			if p.Size%256 != 0 {
				t.Errorf("real packet not padded: %d", p.Size)
			}
		}
	}
	// A burst of 5 real packets at t=0; the shaper must drain them at the
	// flat cadence with dummies continuing afterwards.
	for i := 0; i < 5; i++ {
		hook(&netsim.Packet{Size: 100, App: "event:on", Payload: []byte("x")}, send)
	}
	k.Run(time.Second)
	if real != 5 {
		t.Errorf("real = %d, want 5", real)
	}
	if dummy == 0 {
		t.Error("no cover traffic emitted after queue drained")
	}
	// Every emission exactly one cadence apart: a perfectly flat stream.
	for i := 1; i < len(emissions); i++ {
		if d := emissions[i] - emissions[i-1]; d != 100*time.Millisecond {
			t.Fatalf("inter-cell gap %s at %d, want 100ms", d, i)
		}
	}
	if sh.Stats().DummyPackets != dummy {
		t.Error("dummy accounting mismatch")
	}
}

// TestDummiesOutliveRecycledPackets: the dummy template is a copy of the
// last shaped packet, not the packet itself, which the network recycles
// once it is delivered. Every dummy must keep that packet's addressing.
func TestDummiesOutliveRecycledPackets(t *testing.T) {
	k := sim.NewKernel(5)
	n := netsim.New(k)
	gw := netsim.NewGateway("lan:gw", "wan:home")
	sh := New(k, Config{Mode: ModeCombined, Interval: 100 * time.Millisecond, PadBucket: 256})
	gw.Shaper = sh.GatewayHook()
	var real, dummy int
	cloud := &netsim.FuncNode{Address: "wan:cloud", Fn: func(_ *netsim.Network, p *netsim.Packet) {
		if p.Src != "wan:home" || p.Dst != "wan:cloud" {
			t.Errorf("cloud got %s -> %s", p.Src, p.Dst)
		}
		if p.Dummy {
			dummy++
		} else {
			real++
		}
	}}
	for _, node := range []netsim.Node{gw, gw.WANNode(), cloud} {
		if err := n.Attach(node, netsim.Link{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.SendOut(n, n.NewPacket(netsim.Packet{Src: "lan:cam", Dst: "wan:cloud", DstPort: 443, Size: 100})); err != nil {
		t.Fatal(err)
	}
	k.Run(time.Second)
	if real != 1 || dummy == 0 {
		t.Errorf("cloud got %d real and %d dummy cells, want 1 and some", real, dummy)
	}
}
