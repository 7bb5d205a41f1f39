package exp

import (
	"fmt"
	"time"

	"xlf/internal/channel"
	"xlf/internal/device"
	"xlf/internal/dnsp"
	"xlf/internal/lwc"
	"xlf/internal/metrics"
	"xlf/internal/netsim"
	"xlf/internal/sim"
)

// runE7 compares the three DNS modes of §IV-A3 on the same home: cleartext
// DNS, end-to-end DoT, and the XLF lightweight bridge. It reports query
// latency, name exposure to observers, off-path poisoning success, and the
// device-side crypto cost on a Table I bulb-class device (the feasibility
// argument for the bridge).
//
// It is the E7 registry entry. Each DNS mode simulates its own home
// from the seed, so the three modes fan out across env.Workers.
func runE7(env *Env) *Result {
	r := &Result{ID: "E7", Title: "DNS privacy: plain vs DoT vs XLF lightweight bridge"}
	t := metrics.NewTable("", "Mode", "MeanLatency", "NamesVisible", "PoisonSucceeds", "BulbCryptoCost/query")

	reg := lwc.NewRegistry()
	bulb, err := device.ProfileByName("Philips Hue Lightbulb")
	if err != nil {
		panic(err)
	}
	aes, _ := reg.Lookup("AES")
	// The bridge's sessions run the cipher the bulb's channel negotiates
	// (channel.ForProfile in e7Mode), so its cost is priced with that one.
	bridgeCipher, err := channel.Negotiate(bulb, reg)
	if err != nil {
		panic(err)
	}
	// Device-side per-query crypto cost: DoT needs conventional-grade
	// crypto for the TLS record layer (~2 KB of processing per resolved
	// query incl. handshake amortisation); the bridge needs one
	// lightweight seal/open over ~120 bytes.
	dotCost := device.CostModel(bulb, aes.CyclesPerByte, aes.RAMBytes).SecondsPerKB * 2
	bridgeCost := device.CostModel(bulb, bridgeCipher.CyclesPerByte, bridgeCipher.RAMBytes).SecondsPerKB * 120 / 1024

	modes := []string{"DNS", "DoT", "XLF-bridge"}
	type e7Out struct {
		lat      time.Duration
		visible  int
		poisoned bool
	}
	points := Sweep(env, len(modes), func(i int, env *Env) e7Out {
		lat, visible, poisoned := e7Mode(env.Seed, modes[i])
		return e7Out{lat, visible, poisoned}
	})
	for i, mode := range modes {
		lat, visible, poisoned := points[i].lat, points[i].visible, points[i].poisoned
		cost := "none (gateway resolves)"
		switch mode {
		case "DoT":
			cost = fmt.Sprintf("%.2fms", dotCost*1e3)
		case "XLF-bridge":
			cost = fmt.Sprintf("%.2fms", bridgeCost*1e3)
		}
		t.AddRow(mode, lat.Truncate(time.Microsecond).String(),
			fmt.Sprint(visible), fmt.Sprint(poisoned), cost)
		r.num("latency_ms_"+mode, float64(lat)/1e6)
		r.num("visible_"+mode, float64(visible))
		r.num("poisoned_"+mode, boolTo01(poisoned))
	}
	r.num("bulb_dot_ms", dotCost*1e3)
	r.num("bulb_bridge_ms", bridgeCost*1e3)
	r.Output = t.String() + fmt.Sprintf(
		"\nbulb-class device crypto budget: DoT-grade %.2fms vs bridge %.3fms per query (%.0fx)\n",
		dotCost*1e3, bridgeCost*1e3, dotCost/bridgeCost)
	return r
}

// e7Mode resolves a set of vendor domains under one mode and measures mean
// latency, observer-visible names, and off-path poisoning success.
func e7Mode(seed int64, mode string) (time.Duration, int, bool) {
	k := sim.NewKernel(seed)
	n := netsim.New(k)
	names := []string{"api.nest.example", "dropcam.example", "bridge.hue.example", "food.fridge.example"}
	var records []netsim.DNSRecord
	for _, nm := range names {
		records = append(records, netsim.DNSRecord{Name: nm, Addr: netsim.Addr("wan:" + nm), TTL: time.Minute})
	}
	srv := netsim.NewDNSServer("wan:dns", records)
	if err := n.Attach(srv, netsim.DefaultWAN()); err != nil {
		panic(err)
	}
	cap := netsim.NewCapture()
	n.AddTap(netsim.TapWAN, cap.Tap())
	n.AddTap(netsim.TapLAN, cap.Tap())

	var lat metrics.Latencies
	poisonTarget := "dropcam.example"
	var poisoned bool

	switch mode {
	case "DNS", "DoT":
		res := netsim.NewResolver("lan:resolver", "wan:dns", mode)
		if err := n.Attach(res, netsim.DefaultLAN()); err != nil {
			panic(err)
		}
		for _, nm := range names {
			nm := nm
			if nm == poisonTarget {
				// Off-path forgery racing this query (the attacker
				// observes or predicts the lookup timing).
				n.Send(&netsim.Packet{
					Src: "wan:attacker", Dst: "lan:resolver", SrcPort: 53, DstPort: 5353,
					Proto: "DNS", Size: 120, DNSName: poisonTarget, Payload: []byte("wan:attacker"),
				})
			}
			start := k.Now()
			res.Lookup(n, nm, func(a netsim.Addr, err error) {
				lat.Observe(k.Now() - start)
				if nm == poisonTarget && a == "wan:attacker" {
					poisoned = true
				}
			})
			k.Run(k.Now() + 2*time.Second)
		}
	case "XLF-bridge":
		upstream := netsim.NewResolver("lan:up", "wan:dns", "DoT")
		if err := n.Attach(upstream, netsim.DefaultLAN()); err != nil {
			panic(err)
		}
		// The bulb's channel to the bridge, one session per direction,
		// each derived from the pairing key.
		bulb, err := device.ProfileByName("Philips Hue Lightbulb")
		if err != nil {
			panic(err)
		}
		reg := lwc.NewRegistry()
		up, err := channel.ForProfile(bulb, reg, []byte("xlf-dns-pairing/up"))
		if err != nil {
			panic(err)
		}
		down, err := channel.ForProfile(bulb, reg, []byte("xlf-dns-pairing/down"))
		if err != nil {
			panic(err)
		}
		bridge := dnsp.NewBridge("lan:bridge", up, down, upstream)
		if err := n.Attach(bridge, netsim.DefaultLAN()); err != nil {
			panic(err)
		}
		stub := dnsp.NewStub("lan:bulb", "lan:bridge", up, down)
		dev := &netsim.FuncNode{Address: "lan:bulb", Fn: func(_ *netsim.Network, pkt *netsim.Packet) {
			stub.HandleResponse(pkt)
		}}
		if err := n.Attach(dev, netsim.DefaultLAN()); err != nil {
			panic(err)
		}
		for _, nm := range names {
			nm := nm
			if nm == poisonTarget {
				n.Send(&netsim.Packet{
					Src: "wan:attacker", Dst: "lan:up", SrcPort: 53, DstPort: 5353,
					Proto: "DNS", Size: 120, DNSName: poisonTarget, Payload: []byte("wan:attacker"),
				})
			}
			start := k.Now()
			if err := stub.Query(n, nm, func(a netsim.Addr, err error) {
				lat.Observe(k.Now() - start)
				if nm == poisonTarget && a == "wan:attacker" {
					poisoned = true
				}
			}); err != nil {
				panic(err)
			}
			k.Run(k.Now() + 2*time.Second)
		}
	}

	visible := 0
	for _, rec := range cap.Records() {
		if rec.DNSName != "" {
			visible++
		}
	}
	return lat.Mean(), visible, poisoned
}
