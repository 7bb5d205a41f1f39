package exp

import (
	"fmt"
	"time"

	"xlf"
	"xlf/internal/attack"
	"xlf/internal/channel"
	"xlf/internal/core"
	"xlf/internal/device"
	"xlf/internal/lwc"
	"xlf/internal/metrics"
	"xlf/internal/proto"
	"xlf/internal/testbed"
)

// runTable1 regenerates the paper's Table I and extends it with the
// feasibility analysis the table exists to support: per device, the
// cheapest Table III cipher that fits, and modeled AES-128 software time —
// computation, storage and power "limit the security functions that can be
// implemented on the device".
//
// It is the T1 registry entry.
func runTable1(env *Env) *Result {
	r := &Result{ID: "T1", Title: "Device-layer components (paper Table I) + crypto feasibility"}
	reg := lwc.NewRegistry()
	aes, _ := reg.Lookup("AES")

	t := metrics.NewTable("", "Device", "Freq", "RAM", "Class", "Cheapest cipher", "Session cipher", "AES ms/KB", "Best ms/KB")
	fitsCount := 0
	for _, p := range device.Table1() {
		aesCost := device.CostModel(p, aes.CyclesPerByte, aes.RAMBytes)
		afford := device.AffordableCiphers(p, reg)
		best := "(none fits)"
		bestMs := "-"
		if len(afford) > 0 {
			best = afford[0].Name
			c := device.CostModel(p, afford[0].CyclesPerByte, afford[0].RAMBytes)
			bestMs = fmt.Sprintf("%.3g", c.SecondsPerKB*1e3)
			fitsCount++
		}
		aesMs := "-"
		if aesCost.Fits {
			aesMs = fmt.Sprintf("%.3g", aesCost.SecondsPerKB*1e3)
		}
		// What the XLF channel would actually negotiate for a session
		// (strongest affordable >= 128-bit key, >= 64-bit block).
		session := "(none)"
		if info, err := channel.Negotiate(p, reg); err == nil {
			session = fmt.Sprintf("%s-%d", info.Name, info.DefaultKeyBits())
		}
		t.AddRow(p.Name, hzShort(p.CoreHz), memShort(p.RAMBytes),
			p.DeviceClass().String(), best, session, aesMs, bestMs)
	}
	// Energy ablation: battery life of the bulb-class device under a
	// 1 KB/min encryption duty cycle, per cipher — the power column of
	// Table I made quantitative.
	et := metrics.NewTable("", "Cipher on bulb", "uJ/KB", "Battery days @1KB/min")
	bulb, err := device.ProfileByName("Philips Hue Lightbulb")
	if err != nil {
		r.Output = err.Error()
		return r
	}
	for _, name := range []string{"AES", "PRESENT", "TEA", "LEA", "3DES"} {
		info, ok := reg.Lookup(name)
		if !ok {
			continue
		}
		c := device.CostModel(bulb, info.CyclesPerByte, info.RAMBytes)
		if !c.Fits {
			et.AddRow(name, "-", "(does not fit)")
			continue
		}
		// 2 Ah @ 3 V battery = 2.16e10 uJ; duty = 1 KB/min.
		const batteryUJ = 2.0 * 3600 * 3 * 1e6
		perDay := c.MicroJoulePerKB * 60 * 24
		days := batteryUJ / perDay
		et.AddRow(name, fmt.Sprintf("%.1f", c.MicroJoulePerKB), fmt.Sprintf("%.0f", days))
		r.num("battery_days_"+name, days)
	}

	r.Output = device.FormatTable1() +
		"\nFeasibility (cost model; see DESIGN.md substitutions):\n" + t.String() +
		"\nEnergy ablation (crypto-only draw; radios excluded):\n" + et.String()
	r.num("rows", float64(t.Rows()))
	r.num("devices_with_cipher", float64(fitsCount))
	return r
}

func hzShort(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2gGHz", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3gMHz", v/1e6)
	default:
		return fmt.Sprintf("%.4gkHz", v/1e3)
	}
}

func memShort(v int64) string {
	switch {
	case v == 0:
		return "NA"
	case v >= 1<<30:
		return fmt.Sprintf("%dGB", v>>30)
	case v >= 1<<20:
		return fmt.Sprintf("%dMB", v>>20)
	case v >= 1<<10:
		return fmt.Sprintf("%dKB", v>>10)
	default:
		return fmt.Sprintf("%dB", v)
	}
}

// runTable2 regenerates Table II by *executing* each attack three ways —
// against the vulnerable home, against the hardened platform (signed OTA,
// fine-grained grants, signed events), and under the full XLF runtime —
// reporting the paper's triple plus each outcome.
//
// It is the T2 registry entry. Each attack's three-way execution
// (vulnerable home, hardened platform, full XLF) is an independent sweep
// point, so the row grid fans out across the env's worker budget.
func runTable2(env *Env) *Result {
	r := &Result{ID: "T2", Title: "Device-layer attack surface (paper Table II), executed"}
	t := metrics.NewTable("", "Device", "Vulnerability", "Attack", "Impact", "Vulnerable home", "Hardened platform", "XLF detects")

	type t2Row struct {
		cells                       [7]string
		succVuln, succHard, detects bool
		err                         error
	}
	rows := Sweep(env, len(attack.TableIIAttacks()), func(i int, env *Env) t2Row {
		// Each point re-derives its own attack instance: attacks carry
		// execution state, so sweep points must not share them.
		a := attack.TableIIAttacks()[i]
		seed := env.Seed
		vuln, method, impact := a.TableII()
		var row t2Row

		// Vulnerable home: no XLF, flawed platform.
		hv, err := testbed.New(testbed.Config{Seed: seed, Flaws: vulnerableFlaws()})
		if err != nil {
			row.err = err
			return row
		}
		resV := a.Execute(hv.AttackEnv())
		hv.Run(30 * time.Second)

		// Hardened platform: signed OTA, fine-grained grants, DoT.
		hx, err := testbed.New(testbed.Config{Seed: seed, ResolverMode: "DoT"})
		if err != nil {
			row.err = err
			return row
		}
		resX := a.Execute(hx.AttackEnv())
		hx.Run(30 * time.Second)

		// Full XLF runtime over the flawed platform: does the cross-layer
		// stack at least detect the attack even where it cannot prevent
		// the underlying flaw?
		sys, err := xlf.New(xlf.Options{Seed: seed, Flaws: vulnerableFlaws()})
		if err != nil {
			row.err = err
			return row
		}
		a.Execute(sys.Home.AttackEnv())
		sys.Home.Run(2 * time.Minute)
		det := "missed"
		if sys.Core.Stats().Alerts > 0 {
			det = "DETECTED"
			row.detects = true
		}
		row.succVuln = resV.Succeeded
		row.succHard = resX.Succeeded
		row.cells = [7]string{targetOf(a), vuln, method, impact, outcome(resV), outcome(resX), det}
		return row
	})

	succVuln, succHard, detected := 0, 0, 0
	for _, row := range rows {
		if row.err != nil {
			r.Output = row.err.Error()
			return r
		}
		if row.succVuln {
			succVuln++
		}
		if row.succHard {
			succHard++
		}
		if row.detects {
			detected++
		}
		t.AddRow(row.cells[:]...)
	}
	t.Title = fmt.Sprintf("(vulnerable home: %d/7 succeed; hardened: %d/7 succeed; XLF detects %d/7)",
		succVuln, succHard, detected)
	r.Output = t.String()
	r.num("vulnerable_successes", float64(succVuln))
	r.num("hardened_successes", float64(succHard))
	r.num("xlf_detected", float64(detected))
	return r
}

func targetOf(a attack.Attack) string {
	switch at := a.(type) {
	case *attack.StaticPasswordMitM:
		return "Smart light bulb"
	case *attack.BufferOverflow:
		return "Wall pad"
	case *attack.FirmwareModulation:
		return "Network camera"
	case *attack.Rickrolling:
		return "Chromecast"
	case *attack.UPnPSniff:
		return "Coffee machine"
	case *attack.MaliciousMail:
		return "Fridge"
	case *attack.OpenWiFiMitM:
		return "Oven"
	default:
		_ = at
		return a.Name()
	}
}

func outcome(res attack.Result) string {
	if res.Succeeded {
		return "SUCCEEDS"
	}
	return "blocked"
}

// runTable3 regenerates Table III from the cipher registry and adds measured
// software throughput for each algorithm (the NIST IR 8114 software
// metric), which the device cost model consumes.
//
// It is the T3 registry entry; the throughput column is timed on the
// env clock.
func runTable3(env *Env) *Result {
	r := &Result{ID: "T3", Title: "Lightweight cryptographic algorithms (paper Table III), measured"}
	reg := lwc.NewRegistry()
	t := metrics.NewTable("", "Algorithm", "Key Size", "Block", "Structure", "Rounds", "KAT", "MB/s (this host)")

	var fastest string
	var fastestRate float64
	for _, info := range reg.All() {
		rate := measureThroughput(env, info)
		if rate > fastestRate {
			fastestRate, fastest = rate, info.Name
		}
		kat := "property"
		if info.Verified {
			kat = "published"
		}
		t.AddRow(info.Name, keySizes(info.KeySizes), fmt.Sprint(info.BlockSize),
			string(info.Structure), info.Rounds, kat, fmt.Sprintf("%.1f", rate/1e6))
	}
	r.Output = t.String() + fmt.Sprintf("\nfastest software cipher on this host: %s (%.1f MB/s)\n", fastest, fastestRate/1e6)
	r.num("algorithms", float64(t.Rows()))
	r.num("fastest_mbps", fastestRate/1e6)
	return r
}

func keySizes(ks []int) string {
	s := ""
	for i, k := range ks {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprint(k)
	}
	return s
}

// measureThroughput times ~0.5 MB of ECB encryption on the env clock.
// Wall-clock use is confined to measurement (never simulation logic) and
// enters only through the env clock.
func measureThroughput(env *Env, info lwc.Info) float64 {
	key := make([]byte, info.DefaultKeyBits()/8)
	for i := range key {
		key[i] = byte(i * 7)
	}
	blk, err := info.New(key)
	if err != nil {
		return 0
	}
	bs := blk.BlockSize()
	buf := make([]byte, bs)
	const total = 1 << 19
	iters := total / bs
	el := env.timeSection(func() {
		for i := 0; i < iters; i++ {
			blk.Encrypt(buf, buf)
		}
	}).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(total) / el
}

// Figure1 renders the layered architecture from the component inventory.
func Figure1() *Result {
	return &Result{ID: "F1", Title: "Generic layered IoT architecture", Output: core.RenderFigure1()}
}

// Figure2 renders the protocol/TCP-IP mapping from the registry. The
// figure table is compiled in, so a constructor failure is a programming
// error: MustRegistry is the sanctioned panic.
func Figure2() *Result {
	reg := proto.MustRegistry()
	r := &Result{ID: "F2", Title: "IoT protocols on the TCP/IP stack", Output: reg.RenderFigure2()}
	r.num("protocols", float64(len(reg.All())))
	return r
}

// Figure3 renders the attack-surface map from the attack library's layer
// annotations.
func Figure3() *Result {
	r := &Result{ID: "F3", Title: "IoT attack surface areas"}
	byLayer := map[attack.Layer][]string{}
	all := append(attack.TableIIAttacks(),
		&attack.MiraiRecruit{CNC: "wan:cnc"},
		&attack.DDoSFlood{Victim: "wan:victim"},
		&attack.DNSPoison{},
		&attack.EventSpoof{},
		&attack.RogueApp{},
		&attack.PolicyAbuse{},
	)
	for _, a := range all {
		byLayer[a.Layer()] = append(byLayer[a.Layer()], a.Name())
	}
	out := "Figure 3: attack surface areas by layer\n"
	for _, l := range []attack.Layer{attack.LayerDevice, attack.LayerNetwork, attack.LayerService} {
		out += fmt.Sprintf("\n[%s layer]\n", l)
		for _, n := range byLayer[l] {
			out += "  - " + n + "\n"
		}
	}
	r.Output = out
	r.num("attacks", float64(len(all)))
	return r
}

// Figure4 renders the XLF cross-layer design.
func Figure4() *Result {
	return &Result{ID: "F4", Title: "XLF cross-layer security design", Output: core.RenderFigure4()}
}
