package exp

import (
	"fmt"
	"time"

	"xlf/internal/metrics"
	"xlf/internal/netsim"
	"xlf/internal/shaping"
	"xlf/internal/sim"
)

// runE2 sweeps traffic-shaping intensity and reports the passive
// adversary's device-identification confidence and event-inference
// precision/recall against the bandwidth overhead and added latency — the
// §IV-B1 trade-off curve.
//
// It is the E2 registry entry. Each intensity level builds its own
// simulated home from the seed, so the grid fans out across env.Workers.
func runE2(env *Env) *Result {
	r := &Result{ID: "E2", Title: "Traffic shaping: adversary confidence vs bandwidth overhead"}
	t := metrics.NewTable("", "Intensity", "Mode", "IdentConf", "EventPrec", "EventRecall", "Overhead", "MeanDelay")

	intensities := []float64{0, 0.2, 0.5, 0.7, 0.85, 1.0}
	rows := Sweep(env, len(intensities), func(i int, env *Env) e2Row {
		return e2Point(env.Seed, intensities[i])
	})
	for i, intensity := range intensities {
		row := rows[i]
		t.AddRow(
			fmt.Sprintf("%.2f", intensity), row.mode,
			fmt.Sprintf("%.2f", row.identConf),
			fmt.Sprintf("%.2f", row.prec),
			fmt.Sprintf("%.2f", row.recall),
			fmt.Sprintf("%.2f", row.overhead),
			row.meanDelay.Truncate(time.Millisecond).String(),
		)
		r.num(fmt.Sprintf("recall_%.2f", intensity), row.recall)
		r.num(fmt.Sprintf("overhead_%.2f", intensity), row.overhead)
		r.num(fmt.Sprintf("ident_%.2f", intensity), row.identConf)
	}
	r.Output = t.String() +
		"\nExpected shape: identification confidence and event recall fall as intensity\n" +
		"rises; overhead and latency are the price (rate equalisation flattens bursts).\n"
	return r
}

type e2Row struct {
	mode      string
	identConf float64
	prec      float64
	recall    float64
	overhead  float64
	meanDelay time.Duration
}

// e2Point builds a camera home with ground-truth events and measures the
// adversary at one shaping level.
func e2Point(seed int64, intensity float64) e2Row {
	k := sim.NewKernel(seed)
	n := netsim.New(k)
	gw := netsim.NewGateway("lan:gw", "wan:home")
	cfg := shaping.Level(intensity)
	sh := shaping.New(k, cfg)
	if cfg.Mode != shaping.ModeOff {
		gw.Shaper = sh.GatewayHook()
	}
	wanCap := netsim.NewCapture()

	mustAttach := func(node netsim.Node, l netsim.Link) {
		if err := n.Attach(node, l); err != nil {
			panic(err)
		}
	}
	mustAttach(gw, netsim.DefaultLAN())
	mustAttach(gw.WANNode(), netsim.DefaultWAN())
	mustAttach(&netsim.FuncNode{Address: "wan:cam-cloud"}, netsim.DefaultWAN())
	mustAttach(&netsim.FuncNode{Address: "lan:cam"}, netsim.DefaultLAN())
	n.AddTap(netsim.TapWAN, wanCap.Tap())

	// Identification signal: one cleartext DNS query at start.
	n.Send(&netsim.Packet{Src: "lan:gw", Dst: "wan:dns", SrcPort: 5353, DstPort: 53,
		Proto: "DNS", Size: 80, DNSName: "cam.vendor.example", App: "dns-query"})

	// Background keepalive + event bursts at known times.
	k.Every(2*time.Second, 500*time.Millisecond, "keepalive", func() {
		gw.SendOut(n, &netsim.Packet{Src: "lan:cam", SrcPort: 7001, Dst: "wan:cam-cloud",
			DstPort: 443, Proto: "TLS", Encrypted: true, Size: 400})
	})
	var truth []shaping.GroundTruthEvent
	for _, at := range []time.Duration{60 * time.Second, 150 * time.Second, 240 * time.Second, 330 * time.Second} {
		at := at
		truth = append(truth, shaping.GroundTruthEvent{Time: at, DeviceType: "camera"})
		k.Schedule(at, "motion", func() {
			for i := 0; i < 12; i++ {
				gw.SendOut(n, &netsim.Packet{Src: "lan:cam", SrcPort: 7001, Dst: "wan:cam-cloud",
					DstPort: 443, Proto: "TLS", Encrypted: true, Size: 1200, App: "event:motion"})
			}
		})
	}
	k.Run(6 * time.Minute)

	adv := shaping.NewAdversary(shaping.KnowledgeBase{
		DomainType: map[string]string{"cam.vendor.example": "camera"},
		DomainAddr: map[string]netsim.Addr{"cam.vendor.example": "wan:cam-cloud"},
		RateBand:   map[string][2]float64{"camera": {50, 2000}},
	})
	ids := adv.IdentifyDevices(wanCap.Records())
	identConf := 0.0
	for _, id := range ids {
		if id.DeviceType == "camera" && id.Confidence > identConf {
			identConf = id.Confidence
		}
	}
	events := adv.InferEvents(wanCap.Records())
	prec, recall := shaping.ScoreEvents(events, truth, 5*time.Second)
	return e2Row{
		mode:      cfg.Mode.String(),
		identConf: identConf,
		prec:      prec,
		recall:    recall,
		overhead:  sh.Stats().OverheadFraction(),
		meanDelay: sh.Stats().MeanDelay(),
	}
}
