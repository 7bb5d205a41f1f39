// Package xlf is the public facade of the XLF cross-layer IoT security
// framework (Wang, Mohaisen, Chen — ICDCS 2019). It assembles the
// simulated smart home (internal/testbed) with every XLF security
// function — device-layer attestation and delegated authentication,
// network-layer NAC, IDS and encrypted DPI, service-layer application
// verification and contextual analytics — and couples them through the
// XLF Core's correlation engine. Traffic shaping (internal/shaping) is
// installed on the gateway directly, as E2 does.
//
// Quickstart:
//
//	sys, err := xlf.New(xlf.Options{Seed: 1})
//	...
//	sys.Core.OnAlert = func(a xlf.CoreAlert) { fmt.Println(a) }
//	sys.Home.Run(10 * time.Minute)
//	fmt.Print(sys.Report())
package xlf

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"xlf/internal/analytics"
	"xlf/internal/behavior"
	"xlf/internal/core"
	"xlf/internal/dpi"
	"xlf/internal/ids"
	"xlf/internal/netsim"
	"xlf/internal/obs"
	"xlf/internal/service"
	"xlf/internal/testbed"
	"xlf/internal/xauth"
)

// CoreAlert aliases the Core's alert type so facade consumers don't need
// to import internal/core for the OnAlert callback.
type CoreAlert = core.Alert

// attestEvery is the firmware attestation cadence (§IV-A4).
const attestEvery = 30 * time.Second

// Options configures a System.
type Options struct {
	// Seed drives all simulation randomness; equal seeds replay exactly.
	Seed int64
	// Flaws selects the vulnerable platform configuration. With XLF
	// protection enabled the flaws represent the legacy platform XLF has
	// to compensate for.
	Flaws service.Flaws
	// CoreConfig tunes the correlation engine; zero value = defaults.
	CoreConfig core.Config
	// Users provisions the cloud authority; nil installs a default owner
	// and guest.
	Users []xauth.User
	// DisableProtection builds the testbed WITHOUT any XLF function —
	// the unprotected baseline for experiments.
	DisableProtection bool
	// LightweightEncryption enables the §IV-A2 device-layer function:
	// per-device sessions over negotiated Table III ciphers, with sealed
	// payloads and battery metering.
	LightweightEncryption bool
	// Tracer, when set, records cross-layer spans from every instrumented
	// component (kernel, network, devices, DPI, shaping, xauth, Core) into
	// one timeline on the simulation clock. Nil (the default) disables
	// tracing; the hot paths then pay only a nil check.
	Tracer *obs.Tracer
}

// System is a running XLF deployment over a simulated home.
type System struct {
	Home *testbed.Home
	Core *core.Core
	NAC  *core.NACPolicy

	IDS      *ids.Pipeline
	Rules    *dpi.RuleSet
	Monitors map[string]*behavior.Monitor

	// alphabets caches each device DFA's event vocabulary so telemetry
	// (readings outside the actuation alphabet) is not misjudged as an
	// illegal transition.
	alphabets map[string]map[string]bool

	// learned holds transition models for DFA-less devices (the Amazon
	// Echo case, §IV-B3), trained from their typical benign traces;
	// lastEvent tracks the previous event per such device.
	learned     map[string]*behavior.LearnedModel
	lastEvent   map[string]string
	lastEventAt map[string]time.Duration

	// rfSeen tracks recent radio activity per device (packets to or from
	// its LAN address). A cloud event with no RF evidence in its window
	// was injected at the service layer — the cross-layer spoof check.
	rfSeen map[string][]time.Duration

	// uplinkCount accumulates per-device uplink packets in the current
	// volume bin; uplinkBase holds each device's per-minute EWMA baseline
	// (§IV-C3: "irregular amounts of keep-alive packets on the device").
	uplinkCount map[string]int
	uplinkBase  map[string]*analytics.EWMA

	Authority *xauth.Authority
	Proxy     *xauth.Proxy

	correlator *analytics.Correlator
	ctx        analytics.Context

	// declaredRules records each app's declared automations for
	// application verification.
	declaredRules map[string][]service.Rule

	// deviceIDs holds the home's device IDs in sorted order, the order
	// attest and volumeTick sweep them in: signal ingestion order must
	// not depend on map iteration, or traces (and any order-sensitive
	// correlation) would differ between identically-seeded runs. The
	// device set is fixed once testbed.New returns, so New sorts it once.
	deviceIDs []string

	protected bool
}

// New builds the home and, unless DisableProtection is set, deploys the
// full XLF stack onto it.
func New(opts Options) (*System, error) {
	home, err := testbed.New(testbed.Config{
		Seed:                  opts.Seed,
		Flaws:                 opts.Flaws,
		LightweightEncryption: opts.LightweightEncryption && !opts.DisableProtection,
		Tracer:                opts.Tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("xlf: build testbed: %w", err)
	}

	s := &System{
		Home:          home,
		Monitors:      make(map[string]*behavior.Monitor),
		alphabets:     make(map[string]map[string]bool),
		learned:       make(map[string]*behavior.LearnedModel),
		lastEvent:     make(map[string]string),
		lastEventAt:   make(map[string]time.Duration),
		rfSeen:        make(map[string][]time.Duration),
		uplinkCount:   make(map[string]int),
		uplinkBase:    make(map[string]*analytics.EWMA),
		declaredRules: make(map[string][]service.Rule),
		ctx:           analytics.Context{OutdoorTempF: 70, UserHome: true},
		protected:     !opts.DisableProtection,
	}

	for id := range home.Devices {
		s.deviceIDs = append(s.deviceIDs, id)
	}
	sort.Strings(s.deviceIDs)

	users := opts.Users
	if users == nil {
		users = []xauth.User{
			{Name: "owner", Password: "owner-pw", Priv: xauth.Advanced, MFASecret: "owner-mfa"},
			{Name: "guest", Password: "guest-pw", Priv: xauth.Basic},
		}
	}
	//xlf:allow-cryptomisuse Default demo key for the zero-config facade; production embedders pass Options.Users and their own authority. Documented in DESIGN.md. Reviewed 2026-08.
	s.Authority, err = xauth.NewAuthority([]byte("xlf-authority-key"), users)
	if err != nil {
		return nil, fmt.Errorf("xlf: authority: %w", err)
	}
	s.Proxy = xauth.NewProxy(s.Authority)
	s.Authority.Tracer = opts.Tracer
	s.Proxy.Tracer = opts.Tracer

	if !s.protected {
		return s, nil
	}

	// ----- XLF Core with containment wired to real enforcement. -----
	s.NAC = core.NewNACPolicy()
	contain := core.Containment{
		BlockDevice: func(id string) { s.NAC.Block(netsim.Addr("lan:" + id)) },
		QuarantineDevice: func(id string) {
			s.NAC.Block(netsim.Addr("lan:" + id))
			if d, ok := home.Devices[id]; ok {
				d.Disinfect() // re-flash + isolate in the model
			}
		},
		RemoveApp: func(appID string) { home.Cloud.UninstallApp(appID) },
		RevokeTokens: func(id string) {
			for _, u := range users {
				s.Proxy.Evict(u.Name)
			}
		},
	}
	coreCfg := opts.CoreConfig
	if coreCfg.Window == 0 && coreCfg.AlertThreshold == 0 && coreCfg.LayerBonus == 0 {
		// Zero value means "defaults". Explicit ablations (e.g.
		// LayerBonus: 0) set the other fields and are preserved.
		coreCfg = core.DefaultConfig()
	}
	s.Core = core.New(coreCfg, contain)
	s.Core.Tracer = opts.Tracer

	// Correlation-driven token lifetimes (§IV-A1).
	s.Authority.LifetimePolicy = func(u xauth.User, deviceID string) time.Duration {
		return s.Core.TokenLifetimeFor(deviceID, time.Hour, home.Kernel.Now())
	}

	s.NAC.Tracer = opts.Tracer

	// ----- Constrained access (§IV-A3): deny-by-default NAC. -----
	for id, d := range home.Devices {
		for _, dom := range d.CloudDomains {
			s.NAC.Allow(netsim.Addr("lan:"+id), netsim.Addr("wan:"+dom))
		}
	}
	s.NAC.AllowInfra("wan:dns")
	// Repeated denials are a constrained-access signal: a device trying
	// to reach endpoints it was never enrolled for is exfiltrating,
	// beaconing, or spamming. Alone the signal stays below the alert
	// threshold; it corroborates other layers.
	s.NAC.OnDeny = func(pkt *netsim.Packet) {
		if dev := deviceOf(pkt.Src); dev != "" {
			s.Core.Ingest(core.Signal{
				Time:     home.Kernel.Now(),
				Layer:    core.Network,
				Source:   "nac",
				DeviceID: dev,
				Kind:     "nac-denial",
				Score:    0.5,
				Detail:   "denied " + string(pkt.Src) + " -> " + string(pkt.Dst) + ":" + strconv.Itoa(pkt.DstPort),
			})
		}
	}
	home.Gateway.OutboundPolicy = s.NAC.GatewayHook()
	// Pre-NAT forward observation: uplink radio evidence per device (the
	// post-NAT taps only see the gateway's address).
	home.Gateway.OnForward = func(pkt *netsim.Packet) {
		if dev := deviceOf(pkt.Src); dev != "" {
			s.recordRF(dev, home.Kernel.Now())
			s.uplinkCount[dev]++
		}
	}
	// Per-minute uplink volume baselines: a device suddenly emitting far
	// more traffic than its learned norm is a device-layer anomaly
	// (spam bursts, exfiltration, flood participation).
	home.Kernel.Every(time.Minute, 0, "xlf-volume", func() { s.volumeTick() })

	// ----- Network monitoring: IDS + DPI on the taps (§IV-B2/3). -----
	s.IDS = ids.DefaultPipeline()
	s.Rules, err = dpi.NewRuleSet(dpi.IoTMalwareRules())
	if err != nil {
		return nil, fmt.Errorf("xlf: rules: %w", err)
	}
	s.Rules.SetTracer(opts.Tracer)
	tap := func(dir netsim.TapDirection, pkt *netsim.Packet) {
		// Radio-activity bookkeeping for the RF-evidence spoof check
		// (LAN-side frames; uplink attribution comes from the gateway's
		// pre-NAT OnForward hook).
		for _, a := range []netsim.Addr{pkt.Src, pkt.Dst} {
			if dev := deviceOf(a); dev != "" {
				s.recordRF(dev, pkt.DeliveredAt)
			}
		}
		rec := netsim.PacketRecord{
			Time: pkt.DeliveredAt, Src: pkt.Src, Dst: pkt.Dst,
			SrcPort: pkt.SrcPort, DstPort: pkt.DstPort,
			Proto: pkt.Proto, Size: pkt.Size, Encrypted: pkt.Encrypted,
		}
		if !pkt.Encrypted {
			rec.DNSName = pkt.DNSName
			rec.Payload = pkt.Payload
		}
		for _, alert := range s.IDS.Process(rec) {
			s.ingestIDS(alert)
		}
		if dir == netsim.TapLAN && len(rec.Payload) > 0 {
			for _, det := range s.Rules.MatchPlain(rec.Payload) {
				s.ingestDPI(rec, det)
			}
		}
	}
	home.Net.AddTap(netsim.TapLAN, tap)
	home.Net.AddTap(netsim.TapWAN, tap)

	// ----- Behaviour profiling per device (§IV-B3). -----
	for id, d := range home.Devices {
		if d.Behavior == nil {
			if len(d.TypicalTraces) > 0 {
				s.learned[id] = behavior.Learn(d.TypicalTraces)
			}
			continue
		}
		m, err := behavior.NewMonitor(id, d.Behavior)
		if err != nil {
			return nil, fmt.Errorf("xlf: monitor %s: %w", id, err)
		}
		s.Monitors[id] = m
		alpha := make(map[string]bool)
		for _, e := range d.Behavior.Events() {
			alpha[e] = true
		}
		s.alphabets[id] = alpha
	}
	home.Cloud.EventMonitor = func(ev service.Event) { s.onEvent(ev) }
	home.Cloud.CommandMonitor = func(cmd service.Command) { s.onCommand(cmd) }

	// ----- Contextual analytics (§IV-C3). -----
	s.correlator = analytics.NewCorrelator(analytics.HomeRules())

	// ----- Device-layer attestation (§IV-A4). -----
	home.Kernel.Every(attestEvery, attestEvery/8, "xlf-attest", func() { s.attest() })

	if opts.Tracer != nil {
		opts.Tracer.Emit(obs.LayerCore, "deploy", "", core.Deployment)
	}
	return s, nil
}

// Protected reports whether the XLF stack is active.
func (s *System) Protected() bool { return s.protected }

// SetContext updates the third-party context (weather, presence) the
// contextual analytics correlate against.
func (s *System) SetContext(ctx analytics.Context) { s.ctx = ctx }

// InstallApp installs a SmartApp and records its declared rules for
// application verification (§IV-C2).
func (s *System) InstallApp(app *service.SmartApp) error {
	if err := s.Home.Cloud.InstallApp(app); err != nil {
		return err
	}
	s.declaredRules[app.ID] = append([]service.Rule(nil), app.Rules...)
	return nil
}

// ingestIDS converts an IDS alert into a Core signal.
func (s *System) ingestIDS(a ids.Alert) {
	dev := deviceOf(a.Src)
	if dev == "" {
		dev = deviceOf(a.Dst)
	}
	s.Core.Ingest(core.Signal{
		Time:     a.Time,
		Layer:    core.Network,
		Source:   "ids:" + a.Detector,
		DeviceID: dev,
		Kind:     a.Detector,
		Score:    a.Confidence,
		Detail:   a.Detail,
	})
}

// ingestDPI converts a DPI detection into a Core signal.
func (s *System) ingestDPI(rec netsim.PacketRecord, det dpi.Detection) {
	dev := deviceOf(rec.Dst)
	if dev == "" {
		dev = deviceOf(rec.Src)
	}
	score := 0.7
	if det.Rule.Severity == dpi.SevCritical {
		score = 0.95
	}
	s.Core.Ingest(core.Signal{
		Time:     rec.Time,
		Layer:    core.Network,
		Source:   "dpi",
		DeviceID: dev,
		Kind:     "dpi:" + det.Rule.ID,
		Score:    score,
		Detail:   det.Rule.Name,
	})
}

// onEvent runs behaviour profiling over accepted platform events.
func (s *System) onEvent(ev service.Event) {
	s.scheduleRFCheck(ev)
	m, ok := s.Monitors[ev.DeviceID]
	if !ok {
		// DFA-less devices fall back to the learned transition model. A
		// long idle gap starts a fresh session: the first event after it
		// is not judged as a transition.
		if model, lok := s.learned[ev.DeviceID]; lok {
			now := s.Home.Kernel.Now()
			prev := s.lastEvent[ev.DeviceID]
			if last, ok := s.lastEventAt[ev.DeviceID]; ok && now-last > 30*time.Minute {
				prev = ""
			}
			s.lastEvent[ev.DeviceID] = ev.Name
			s.lastEventAt[ev.DeviceID] = now
			if prev != "" && !model.Seen(prev, ev.Name) {
				s.Core.Ingest(core.Signal{
					Time:     s.Home.Kernel.Now(),
					Layer:    core.Service,
					Source:   "behavior:learned",
					DeviceID: ev.DeviceID,
					Kind:     "unseen-transition",
					Score:    0.65,
					Detail:   fmt.Sprintf("transition %q -> %q never seen in benign traces", prev, ev.Name),
				})
			}
		}
		return
	}
	// Telemetry outside the actuation alphabet (sensor readings,
	// heartbeats) is not a state transition; it contributes only a weak
	// corroboration signal rather than an illegal-transition verdict.
	if !s.alphabets[ev.DeviceID][ev.Name] {
		s.Core.Ingest(core.Signal{
			Time:     s.Home.Kernel.Now(),
			Layer:    core.Service,
			Source:   "behavior:dfa",
			DeviceID: ev.DeviceID,
			Kind:     "unmodeled-event",
			Score:    0.3,
			Detail:   fmt.Sprintf("event %q outside the device's actuation alphabet", ev.Name),
		})
		return
	}
	if dev := m.Observe(ev.Name); dev != nil {
		s.Core.Ingest(core.Signal{
			Time:     s.Home.Kernel.Now(),
			Layer:    core.Service,
			Source:   "behavior:dfa",
			DeviceID: ev.DeviceID,
			Kind:     "illegal-transition",
			Score:    0.75,
			Detail:   fmt.Sprintf("event %q illegal in state %q", ev.Name, dev.State),
		})
	}
}

// volumeTick closes the current per-minute uplink bin for every device,
// compares it against the device's EWMA baseline, and raises a
// device-layer corroboration signal on strong exceedance.
func (s *System) volumeTick() {
	now := s.Home.Kernel.Now()
	for _, id := range s.deviceIDs {
		count := float64(s.uplinkCount[id])
		s.uplinkCount[id] = 0
		base := s.uplinkBase[id]
		if base == nil {
			e, err := analytics.NewEWMA(0.2)
			if err != nil {
				continue
			}
			base = e
			s.uplinkBase[id] = base
		}
		z := base.ZScore(count)
		base.Update(count)
		// Judge only after warm-up, on large absolute bursts: jittered
		// keepalives wobble a little; spam/exfil bursts are 10x+. A
		// moderate exceedance is corroboration (0.55); a sustained
		// 20x-plus blowout is damning on its own (0.75) — that is
		// gigabytes/day from a lightbulb-class device.
		if base.Count() > 5 && count >= 10 && z > 6 {
			score := 0.55
			if count >= 20 && (z > 20 || math.IsInf(z, 1)) {
				score = 0.75
			}
			s.Core.Ingest(core.Signal{
				Time:     now,
				Layer:    core.Device,
				Source:   "volume",
				DeviceID: id,
				Kind:     "traffic-anomaly",
				Score:    score,
				Detail: fmt.Sprintf("uplink %d pkts/min vs baseline %.1f (z=%.1f)",
					int(count), base.Mean(), z),
			})
		}
	}
}

// rfHistory is how many radio-activity times recordRF keeps per device.
const rfHistory = 16

// recordRF notes radio activity for a device, keeping its last rfHistory
// times oldest first; a full history shifts in place.
func (s *System) recordRF(dev string, at time.Duration) {
	hist := s.rfSeen[dev]
	if len(hist) == rfHistory {
		copy(hist, hist[1:])
		hist[rfHistory-1] = at
		return
	}
	s.rfSeen[dev] = append(hist, at)
}

// scheduleRFCheck verifies, a short grace period after a cloud event, that
// the device showed radio activity around the event time. Real device
// events always ride on packets; an event injected at the service layer
// (spoofing, even with a DFA-legal name) has none. The check runs deferred
// because legitimate event packets may still be in flight when the cloud
// publishes.
func (s *System) scheduleRFCheck(ev service.Event) {
	if _, isDevice := s.Home.Devices[ev.DeviceID]; !isDevice {
		return
	}
	const lookback = 5 * time.Second
	const grace = 2 * time.Second
	evTime := s.Home.Kernel.Now()
	dev := ev.DeviceID
	name := ev.Name
	s.Home.Kernel.Schedule(grace, "xlf-rf-check", func() {
		for _, t := range s.rfSeen[dev] {
			if t >= evTime-lookback && t <= evTime+grace {
				return // corroborated by radio activity
			}
		}
		s.Core.Ingest(core.Signal{
			Time:     s.Home.Kernel.Now(),
			Layer:    core.Device,
			Source:   "rf-evidence",
			DeviceID: dev,
			Kind:     "no-rf-evidence",
			Score:    0.75,
			Detail:   fmt.Sprintf("cloud event %q with no radio activity in [-%s,+%s]", name, lookback, grace),
		})
	})
}

// onCommand runs application verification and contextual analytics over
// every platform-issued command.
func (s *System) onCommand(cmd service.Command) {
	now := s.Home.Kernel.Now()

	// Application verification: app-issued commands must match a declared
	// rule of that app.
	if strings.HasPrefix(cmd.IssuedBy, "app:") {
		appID := strings.TrimPrefix(cmd.IssuedBy, "app:")
		declared := false
		for _, r := range s.declaredRules[appID] {
			if r.ActionDevice == cmd.DeviceID && r.ActionCommand == cmd.Name {
				declared = true
				break
			}
		}
		if !declared {
			s.Core.Ingest(core.Signal{
				Time:     now,
				Layer:    core.Service,
				Source:   "appverify",
				DeviceID: cmd.DeviceID,
				Kind:     "rogue-app:" + appID,
				Score:    0.9,
				Detail:   fmt.Sprintf("app %q issued undeclared %s on %s", appID, cmd.Name, cmd.DeviceID),
			})
		}
	}

	// Contextual analytics on actuations.
	if s.correlator != nil {
		for _, f := range s.correlator.Evaluate(cmd.DeviceID, cmd.Name, 0, s.ctx) {
			s.Core.Ingest(core.Signal{
				Time:     now,
				Layer:    core.Service,
				Source:   "analytics",
				DeviceID: f.DeviceID,
				Kind:     "context:" + f.Rule,
				Score:    f.Score,
				Detail:   fmt.Sprintf("%s (%s by %s)", f.Rule, cmd.Name, cmd.IssuedBy),
			})
		}
	}
}

// attest verifies every device's firmware fingerprint — XLF's device-layer
// malware detection (§IV-A4).
func (s *System) attest() {
	now := s.Home.Kernel.Now()
	for _, id := range s.deviceIDs {
		d := s.Home.Devices[id]
		if s.NAC.Blocked(netsim.Addr("lan:" + id)) {
			continue // already contained
		}
		if !d.Firmware.Verify() {
			s.Core.Ingest(core.Signal{
				Time:     now,
				Layer:    core.Device,
				Source:   "attest",
				DeviceID: id,
				Kind:     "firmware-tamper",
				Score:    0.9,
				Detail:   "firmware fingerprint mismatch at attestation",
			})
		}
		if d.Compromised {
			// A resident-malware heuristic alone is circumstantial (a CPU
			// or memory anomaly, not a confirmed sample): below the alert
			// threshold by itself, it needs corroboration from another
			// layer — which is exactly the cross-layer design point.
			s.Core.Ingest(core.Signal{
				Time:     now,
				Layer:    core.Device,
				Source:   "attest",
				DeviceID: id,
				Kind:     "resident-malware",
				Score:    0.55,
				Detail:   "malware " + d.Malware + " resident",
			})
		}
	}
}

// deviceOf extracts the device ID from a LAN address ("lan:cam-1" ->
// "cam-1"); non-LAN addresses yield "".
func deviceOf(a netsim.Addr) string {
	const p = "lan:"
	str := string(a)
	if strings.HasPrefix(str, p) {
		id := strings.TrimPrefix(str, p)
		switch id {
		case "gw", "resolver", "attacker", "dnsbridge":
			return ""
		}
		return id
	}
	return ""
}

// Figure4 renders the XLF cross-layer design (paper Figure 4) that every
// protected System deploys.
func Figure4() string { return core.RenderFigure4() }

// Report summarises the deployment state for operators.
func (s *System) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "XLF report at t=%s (protection: %v)\n", s.Home.Kernel.Now(), s.protected)
	delivered, dropped, bytes := s.Home.Net.Stats()
	fmt.Fprintf(&b, "network: %d delivered / %d dropped / %d bytes\n", delivered, dropped, bytes)
	if !s.protected {
		return b.String()
	}
	fmt.Fprintf(&b, "NAC denials: %d\n", s.NAC.Denials())
	st := s.Core.Stats()
	fmt.Fprintf(&b, "alerts: %d (%d contained)\n", st.Alerts, st.Contained)
	if flagged := s.Core.FlaggedDevices(); len(flagged) > 0 {
		fmt.Fprintf(&b, "flagged devices: %s\n", strings.Join(flagged, ", "))
	}
	if len(s.Home.Sessions) > 0 {
		ids := make([]string, 0, len(s.Home.Sessions))
		for id := range s.Home.Sessions {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, "lightweight encryption sessions:\n")
		for _, id := range ids {
			fmt.Fprintf(&b, "  %-12s %s\n", id, s.Home.Sessions[id].Algorithm)
		}
	}
	return b.String()
}
