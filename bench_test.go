package xlf_test

// Benchmark harness: one benchmark per paper table and figure plus one per
// quantitative experiment (E1-E10), as indexed in DESIGN.md. Each bench
// regenerates its artifact end to end, so `go test -bench=.` reproduces
// the entire evaluation, and go test's profiling flags profile any one
// experiment; per-cipher micro-benchmarks cover the Table III throughput
// column at testing.B fidelity.

import (
	"testing"
	"time"

	"xlf"
	"xlf/internal/attack"
	"xlf/internal/channel"
	"xlf/internal/core"
	"xlf/internal/exp"
	"xlf/internal/ids"
	"xlf/internal/lwc"
	"xlf/internal/netsim"
	"xlf/internal/obs"
	"xlf/internal/service"
	"xlf/internal/sim"
	"xlf/internal/xauth"
)

// sinkResult prevents dead-code elimination of experiment outputs.
var sinkResult *exp.Result

func benchExperiment(b *testing.B, fn func(seed int64) *exp.Result) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sinkResult = fn(int64(i + 1))
	}
}

// benchRegistry resolves one registry descriptor and regenerates its
// artifact per iteration, seeding each run differently so the costs are
// not cache artifacts.
func benchRegistry(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.Lookup(id)
	if !ok {
		b.Fatalf("registry lost %s", id)
	}
	benchExperiment(b, func(seed int64) *exp.Result { return e.Run(exp.NewEnv(seed)) })
}

func BenchmarkTable1DeviceProfiles(b *testing.B) { benchRegistry(b, "T1") }

func BenchmarkTable2AttackSurface(b *testing.B) { benchRegistry(b, "T2") }

func BenchmarkTable3Ciphers(b *testing.B) { benchRegistry(b, "T3") }

func BenchmarkFigure2ProtocolRegistry(b *testing.B) {
	benchExperiment(b, func(int64) *exp.Result { return exp.Figure2() })
}

func BenchmarkFigure3AttackSurfaceMap(b *testing.B) {
	benchExperiment(b, func(int64) *exp.Result { return exp.Figure3() })
}

func BenchmarkFiguresArchitecture(b *testing.B) {
	benchExperiment(b, func(int64) *exp.Result {
		sinkResult = exp.Figure1()
		return exp.Figure4()
	})
}

func BenchmarkE1CrossLayerDetection(b *testing.B) { benchRegistry(b, "E1") }

func BenchmarkE2TrafficShaping(b *testing.B) { benchRegistry(b, "E2") }

func BenchmarkE3AuthDelegation(b *testing.B) { benchRegistry(b, "E3") }

func BenchmarkE4EncryptedDPI(b *testing.B) { benchRegistry(b, "E4") }

func BenchmarkE5BehaviorDFA(b *testing.B) { benchRegistry(b, "E5") }

func BenchmarkE6CoreLearning(b *testing.B) { benchRegistry(b, "E6") }

func BenchmarkE7DNSPrivacy(b *testing.B) { benchRegistry(b, "E7") }

func BenchmarkE8Botnet(b *testing.B) { benchRegistry(b, "E8") }

func BenchmarkE9Stability(b *testing.B) { benchRegistry(b, "E9") }

func BenchmarkE10SmartCity(b *testing.B) { benchRegistry(b, "E10") }

// BenchmarkTable3Cipher/<name> measures each Table III algorithm's block
// throughput individually (the table's software metric at testing.B
// fidelity).
func BenchmarkTable3Cipher(b *testing.B) {
	reg := lwc.NewRegistry()
	for _, info := range reg.All() {
		info := info
		b.Run(info.Name, func(b *testing.B) {
			key := make([]byte, info.DefaultKeyBits()/8)
			for i := range key {
				key[i] = byte(i * 3)
			}
			blk, err := info.New(key)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, blk.BlockSize())
			b.SetBytes(int64(blk.BlockSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk.Encrypt(buf, buf)
			}
		})
	}
}

// BenchmarkScenarioSimulation measures raw simulation throughput: one full
// protected home under the composite campaign.
func BenchmarkScenarioSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := xlf.New(xlf.Options{
			Seed:  int64(i + 1),
			Flaws: service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		env := sys.Home.AttackEnv()
		(&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 15 * time.Second}).Execute(env)
		if err := sys.Home.Run(5 * time.Minute); err != nil {
			b.Fatal(err)
		}
		if sys.Core.Stats().Alerts == 0 {
			b.Fatal("campaign not detected")
		}
	}
}

// benchIngest drives the correlation engine's signal path with a rotating
// stream of sub-threshold signals across devices and layers. tracer == nil
// is the production default (nil-check fast path); a live tracer adds one
// ring-buffer append per accepted signal.
func benchIngest(b *testing.B, tracer *obs.Tracer) {
	b.Helper()
	sys, err := xlf.New(xlf.Options{Seed: 1, Tracer: tracer})
	if err != nil {
		b.Fatal(err)
	}
	layers := []core.LayerName{core.Device, core.Network, core.Service}
	devices := []string{"bulb-1", "cam-1", "thermo-1", "fridge-1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Core.Ingest(core.Signal{
			Time:     time.Duration(i) * time.Millisecond,
			Layer:    layers[i%len(layers)],
			Source:   "bench",
			DeviceID: devices[i%len(devices)],
			Kind:     "bench-signal",
			Score:    0.3,
		})
	}
}

// BenchmarkCoreIngest is the disabled-tracer baseline: observability off,
// the hot path pays only a nil check. Compare against
// BenchmarkCoreIngestTraced to bound the tracing overhead (DESIGN.md §8).
func BenchmarkCoreIngest(b *testing.B) { benchIngest(b, nil) }

// BenchmarkCoreIngestTraced is the same signal stream with a live span
// recorder attached, measuring the enabled-tracer cost per signal.
func BenchmarkCoreIngestTraced(b *testing.B) {
	benchIngest(b, obs.NewTracer(obs.DefaultCapacity, nil))
}

// sinkDigest and sinkErr keep layer benchmark results live.
var (
	sinkDigest uint64
	sinkErr    error
)

// BenchmarkLayer/<layer>/<op> times one layer's hottest operation with
// allocations reported: lwc's firmware digest (attestation re-hashes
// every image each period), channel's Seal of a device message, xauth's
// token verification (every proxied request), ids's per-record
// identification at the gateway taps and netsim's NAT of a device
// keepalive through the gateway to its delivery.
func BenchmarkLayer(b *testing.B) {
	b.Run("lwc/sum64-4KiB", func(b *testing.B) {
		image := make([]byte, 4096)
		for i := range image {
			image[i] = byte(i * 7)
		}
		b.SetBytes(int64(len(image)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkDigest ^= lwc.Sum64(image)
		}
	})
	b.Run("channel/seal-64B", func(b *testing.B) {
		info, ok := lwc.NewRegistry().Lookup("PRESENT")
		if !ok {
			b.Fatal("registry lost PRESENT")
		}
		s, err := channel.New(info, make([]byte, info.DefaultKeyBits()/8))
		if err != nil {
			b.Fatal(err)
		}
		msg := make([]byte, 64)
		var buf []byte
		b.SetBytes(int64(len(msg)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, sinkErr = s.Seal(buf[:0], msg)
		}
	})
	b.Run("ids/process", func(b *testing.B) {
		// A steady home mix at irregular steps: post-NAT keepalives from
		// the gateway to six clouds and hub chatter to six devices, warmed
		// past every detector window so no measured record alerts.
		clouds := []netsim.Addr{"wan:cloud-0", "wan:cloud-1", "wan:cloud-2", "wan:cloud-3", "wan:cloud-4", "wan:cloud-5"}
		devices := []netsim.Addr{"lan:cam", "lan:bulb", "lan:lock", "lan:plug", "lan:tv", "lan:thermo"}
		steps := []time.Duration{90, 410, 230, 170, 350, 60, 280, 130, 500, 220, 40, 310, 190, 260, 80, 370}
		var at time.Duration
		next := func(i int) netsim.PacketRecord {
			at += steps[i%len(steps)] * time.Millisecond
			r := netsim.PacketRecord{Time: at, Proto: "XLF-LWC", Size: 180, Encrypted: true}
			if j := i / 2 % len(devices); i%2 == 0 {
				r.Src, r.SrcPort, r.Dst, r.DstPort = "wan:gw", 40000+j, clouds[j], 443
			} else {
				r.Src, r.Dst, r.DstPort = "lan:hub", devices[j], 8443
			}
			return r
		}
		p := ids.DefaultPipeline()
		for i := 0; i < 20000; i++ {
			p.Process(next(i))
		}
		warm := len(p.Alerts())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Process(next(i))
		}
		b.StopTimer()
		if n := len(p.Alerts()); n != warm {
			b.Fatalf("%d measured records alerted", n-warm)
		}
	})
	b.Run("netsim/sendout", func(b *testing.B) {
		k := sim.NewKernel(1)
		n := netsim.New(k)
		gw := netsim.NewGateway("lan:gw", "wan:home")
		for _, node := range []netsim.Node{gw, gw.WANNode(), &netsim.FuncNode{Address: "wan:cloud"}} {
			if err := n.Attach(node, netsim.Link{}); err != nil {
				b.Fatal(err)
			}
		}
		// One keepalive per round, recycled by the network after each
		// delivery; the first send creates the NAT binding the measured
		// ones reuse.
		tmpl := netsim.Packet{
			Src: "lan:cam", SrcPort: 7443, Dst: "wan:cloud", DstPort: 443,
			Proto: "XLF-LWC", Encrypted: true, Size: 180, Payload: make([]byte, 48),
		}
		keepalive := func() {
			sinkErr = gw.SendOut(n, n.NewPacket(tmpl))
			if !k.Step() {
				b.Fatal("no delivery event")
			}
		}
		keepalive()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			keepalive()
		}
	})
	b.Run("core/nac-deny", func(b *testing.B) {
		// An enrolled device keeps sending to a destination it was never
		// enrolled for: the NAC refuses each packet and OnDeny feeds the
		// denial signal to the Core, warmed past its per-device signal cap.
		sys, err := xlf.New(xlf.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		net, gw := sys.Home.Net, sys.Home.Gateway
		tmpl := netsim.Packet{Src: "lan:cam-1", SrcPort: 7001, Dst: "wan:cnc", DstPort: 23, Size: 60}
		for i := 0; i < 5000; i++ {
			sinkErr = gw.SendOut(net, net.NewPacket(tmpl))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkErr = gw.SendOut(net, net.NewPacket(tmpl))
		}
	})
	b.Run("xauth/verify", func(b *testing.B) {
		s, err := xauth.NewSigner([]byte("bench-signing-key"))
		if err != nil {
			b.Fatal(err)
		}
		tok := s.Issue("alice", "bulb-1", xauth.Advanced, true, time.Minute, time.Hour)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkErr = s.Verify(tok, 2*time.Minute, "bulb-1")
		}
	})
}
