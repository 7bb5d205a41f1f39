package xlf

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"xlf/internal/analytics"
	"xlf/internal/attack"
	"xlf/internal/core"
	"xlf/internal/netsim"
	"xlf/internal/service"
	"xlf/internal/shaping"
)

func protectedSystem(t *testing.T, seed int64) *System {
	t.Helper()
	sys, err := New(Options{
		Seed: seed,
		// XLF protects a legacy platform that still has its flaws; the
		// point is that the cross-layer functions catch the abuse anyway.
		Flaws: service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// alertLog holds the alerts a Core raised, recorded through OnAlert.
type alertLog []core.Alert

// recordAlerts records every alert sys raises from now on.
func recordAlerts(sys *System) *alertLog {
	l := new(alertLog)
	sys.Core.OnAlert = func(a core.Alert) { *l = append(*l, a) }
	return l
}

// of returns the recorded alerts on one device.
func (l alertLog) of(deviceID string) alertLog {
	var out alertLog
	for _, a := range l {
		if a.DeviceID == deviceID {
			out = append(out, a)
		}
	}
	return out
}

// hasEvidence reports whether any recorded alert carries a signal that
// match accepts.
func (l alertLog) hasEvidence(match func(core.Signal) bool) bool {
	for _, a := range l {
		for _, e := range a.Evidence {
			if match(e) {
				return true
			}
		}
	}
	return false
}

func TestBenignDayRaisesNoAlerts(t *testing.T) {
	sys := protectedSystem(t, 7)
	alerts := recordAlerts(sys)
	// A normal day: keepalives plus legitimate user interactions.
	sched := []struct {
		at    time.Duration
		dev   string
		event string
	}{
		{10 * time.Second, "bulb-1", "on"},
		{30 * time.Second, "thermo-1", "heat"},
		{50 * time.Second, "thermo-1", "target_reached"},
		{80 * time.Second, "bulb-1", "dim"},
		{2 * time.Minute, "bulb-1", "off"},
		{3 * time.Minute, "cam-1", "motion"},
		{3*time.Minute + 20*time.Second, "cam-1", "clear"},
	}
	for _, e := range sched {
		e := e
		sys.Home.Kernel.Schedule(e.at, "user", func() {
			if err := sys.Home.UserEvent(e.dev, e.event); err != nil {
				t.Errorf("user event %s/%s: %v", e.dev, e.event, err)
			}
		})
	}
	// Benign telemetry (sensor readings outside the actuation alphabet)
	// must not be misjudged as illegal transitions.
	sys.Home.Kernel.Every(45*time.Second, 0, "telemetry", func() {
		sys.Home.Cloud.PublishDeviceEvent("thermo-1", "temperature", 71.5)
	})
	if err := sys.Home.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(*alerts) != 0 {
		t.Errorf("benign day produced %d alerts: %v", len(*alerts), *alerts)
	}
	if sys.NAC.Denials() != 0 {
		t.Errorf("benign day produced %d NAC denials", sys.NAC.Denials())
	}
}

func TestMiraiCampaignDetectedAndContained(t *testing.T) {
	sys := protectedSystem(t, 11)
	alerts := recordAlerts(sys)
	env := sys.Home.AttackEnv()

	m := &attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 10 * time.Second}
	res := m.Execute(env)
	if !res.Succeeded {
		t.Fatalf("recruitment failed: %s", res)
	}
	if err := sys.Home.Run(3 * time.Minute); err != nil {
		t.Fatal(err)
	}

	if len(*alerts) == 0 {
		t.Fatal("XLF raised no alerts for a Mirai campaign")
	}
	// The recruited camera must be flagged and contained.
	flagged := sys.Core.FlaggedDevices()
	camFlagged := false
	for _, id := range flagged {
		if id == "cam-1" {
			camFlagged = true
		}
	}
	if !camFlagged {
		t.Errorf("cam-1 not flagged; flagged=%v", flagged)
	}
	contained := false
	for _, a := range alerts.of("cam-1") {
		if a.Action != "" {
			contained = true
		}
	}
	if !contained {
		t.Error("no containment action on the recruited camera")
	}
	// NAC (with C&C never enrolled) must have refused beacons even before
	// quarantine: wan:cnc is not an allowed destination.
	if sys.NAC.Denials() == 0 {
		t.Error("NAC never denied the C&C traffic")
	}
}

func TestNACBlocksCCBeacons(t *testing.T) {
	sys := protectedSystem(t, 13)
	env := sys.Home.AttackEnv()
	(&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 5 * time.Second}).Execute(env)
	sys.Home.Run(2 * time.Minute)
	// No beacon may reach the WAN side: the C&C endpoint is not enrolled.
	for _, r := range sys.Home.WANCap.Records() {
		if r.Dst == "wan:cnc" {
			t.Fatalf("C&C beacon escaped the NAC: %+v", r)
		}
	}
}

// TestNACDenialErrorAndSignal pins the deny path's output: the error
// SendOut returns (its text and its wrapped NAC refusal) and the Detail
// of the constrained-access signal the Core receives.
func TestNACDenialErrorAndSignal(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.AlertThreshold = 0.4 // one denial (score 0.5) alerts, exposing its evidence
	sys, err := New(Options{Seed: 1, CoreConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	recorded := recordAlerts(sys)
	err = sys.Home.Gateway.SendOut(sys.Home.Net, sys.Home.Net.NewPacket(netsim.Packet{Src: "lan:cam-1", SrcPort: 7001, Dst: "wan:cnc", DstPort: 23, Size: 60}))
	if got, want := fmt.Sprint(err), "netsim: outbound blocked: core: NAC denies lan:cam-1 -> wan:cnc"; got != want {
		t.Errorf("denied SendOut error = %q, want %q", got, want)
	}
	var blocked *netsim.BlockedError
	var nac *core.NACError
	if !errors.As(err, &blocked) || !errors.As(err, &nac) || !errors.Is(err, nac) {
		t.Fatalf("error chain %#v lacks *netsim.BlockedError wrapping *core.NACError", err)
	}
	if nac.Src != "lan:cam-1" || nac.Dst != "wan:cnc" || nac.Quarantined {
		t.Errorf("NAC refusal = %+v", *nac)
	}
	alerts := recorded.of("cam-1")
	if len(alerts) != 1 || len(alerts[0].Evidence) != 1 {
		t.Fatalf("alerts = %v, want one carrying the denial", alerts)
	}
	if got, want := alerts[0].Evidence[0].Detail, "denied lan:cam-1 -> wan:cnc:23"; got != want {
		t.Errorf("denial signal Detail = %q, want %q", got, want)
	}

	// SendOut took ownership of the first packet; send a fresh one.
	sys.NAC.Block("lan:cam-1")
	err = sys.Home.Gateway.SendOut(sys.Home.Net, sys.Home.Net.NewPacket(netsim.Packet{Src: "lan:cam-1", SrcPort: 7001, Dst: "wan:cnc", DstPort: 23, Size: 60}))
	if got, want := fmt.Sprint(err), "netsim: outbound blocked: core: lan:cam-1 is quarantined"; got != want {
		t.Errorf("quarantined SendOut error = %q, want %q", got, want)
	}
	if !errors.As(err, &nac) || !nac.Quarantined || nac.Src != "lan:cam-1" {
		t.Errorf("quarantine refusal = %#v", err)
	}
}

func TestEventSpoofCaughtByBehaviorDFA(t *testing.T) {
	sys := protectedSystem(t, 17)
	alerts := recordAlerts(sys)
	env := sys.Home.AttackEnv()
	// Legitimate state: camera is monitoring. A spoofed "clear" event is
	// illegal (clear is only legal while recording).
	res := (&attack.EventSpoof{DeviceID: "cam-1", Event: "clear", Value: 1}).Execute(env)
	if !res.Succeeded {
		t.Fatalf("spoof rejected unexpectedly: %s", res)
	}
	sys.Home.Run(30 * time.Second)
	if !alerts.hasEvidence(func(e core.Signal) bool { return e.Kind == "illegal-transition" && e.DeviceID == "cam-1" }) {
		// A single behaviour signal may sit below the alert threshold;
		// check the monitor recorded the deviation at minimum.
		if _, devs := sys.Monitors["cam-1"].Stats(); devs == 0 {
			t.Error("spoofed event not even recorded as deviation")
		}
	}
}

func TestDFALegalSpoofCaughtByRFEvidence(t *testing.T) {
	sys := protectedSystem(t, 83)
	alerts := recordAlerts(sys)
	env := sys.Home.AttackEnv()
	// "motion" IS legal in the camera's monitoring state, so the DFA
	// check passes — but the event was injected at the service layer with
	// no radio activity from the camera. Only the cross-layer RF check
	// catches it.
	res := (&attack.EventSpoof{DeviceID: "cam-1", Event: "motion", Value: 1}).Execute(env)
	if !res.Succeeded {
		t.Fatalf("spoof rejected: %s", res)
	}
	sys.Home.Run(30 * time.Second)
	noRF := func(e core.Signal) bool { return e.Kind == "no-rf-evidence" }
	if !alerts.of("cam-1").hasEvidence(noRF) {
		t.Error("DFA-legal spoof escaped the RF-evidence check")
	}

	// A real motion event (with its uplink packet) is never flagged.
	sys2 := protectedSystem(t, 89)
	alerts2 := recordAlerts(sys2)
	if err := sys2.Home.UserEvent("cam-1", "motion"); err != nil {
		t.Fatal(err)
	}
	sys2.Home.Run(30 * time.Second)
	if got := alerts2.of("cam-1"); got.hasEvidence(noRF) {
		t.Errorf("real event flagged as spoofed: %v", got)
	}
}

func TestRogueAppCaughtByAppVerification(t *testing.T) {
	sys := protectedSystem(t, 19)
	alerts := recordAlerts(sys)
	env := sys.Home.AttackEnv()
	res := (&attack.RogueApp{
		AppID: "free-wallpaper", CoverDevice: "window-1", CoverCap: "contact",
		TargetDevice: "window-1", TargetCommand: "unlock",
	}).Execute(env)
	if !res.Succeeded {
		t.Fatalf("rogue app failed on flawed platform: %s", res)
	}
	sys.Home.Run(30 * time.Second)
	removed := true
	for _, id := range sys.Home.Cloud.Apps() {
		if id == "free-wallpaper" {
			removed = false
		}
	}
	if !removed {
		t.Error("rogue app not removed by containment")
	}
	if !alerts.hasEvidence(func(e core.Signal) bool { return strings.HasPrefix(e.Kind, "rogue-app:") }) {
		t.Error("application verification produced no rogue-app evidence")
	}
}

func TestPolicyAbuseCaughtByContextAnalytics(t *testing.T) {
	sys := protectedSystem(t, 23)
	alerts := recordAlerts(sys)
	if err := sys.InstallApp(climateApp()); err != nil {
		t.Fatal(err)
	}
	// Winter night, nobody home.
	sys.SetContext(analytics.Context{OutdoorTempF: 28, UserHome: false})
	env := sys.Home.AttackEnv()
	res := (&attack.PolicyAbuse{ThermoID: "thermo-1", FakeTempF: 95}).Execute(env)
	if !res.Succeeded {
		t.Fatalf("policy abuse failed: %s", res)
	}
	sys.Home.Run(30 * time.Second)
	contextual := func(e core.Signal) bool { return strings.HasPrefix(e.Kind, "context:") }
	if !alerts.hasEvidence(contextual) {
		t.Error("contextual analytics missed the §IV-C3 abuse")
	}
	// The same automation on a hot day with the user home is fine.
	sys2 := protectedSystem(t, 29)
	alerts2 := recordAlerts(sys2)
	if err := sys2.InstallApp(climateApp()); err != nil {
		t.Fatal(err)
	}
	sys2.SetContext(analytics.Context{OutdoorTempF: 95, UserHome: true})
	(&attack.PolicyAbuse{ThermoID: "thermo-1", FakeTempF: 95}).Execute(sys2.Home.AttackEnv())
	sys2.Home.Run(30 * time.Second)
	if alerts2.hasEvidence(contextual) {
		t.Errorf("benign summer automation flagged: %v", *alerts2)
	}
}

func climateApp() *service.SmartApp {
	above := 80.0
	return &service.SmartApp{
		ID: "climate-window",
		Rules: []service.Rule{{
			TriggerDevice: "thermo-1", TriggerEvent: "temperature", TriggerAbove: &above,
			ActionDevice: "window-1", ActionCommand: "open",
		}},
		Grants: []service.Grant{
			{DeviceID: "thermo-1", Capability: "temperature"},
			{DeviceID: "window-1", Capability: "lock"},
		},
	}
}

func TestFirmwareTamperCaughtByAttestation(t *testing.T) {
	sys := protectedSystem(t, 31)
	alerts := recordAlerts(sys)
	env := sys.Home.AttackEnv()
	res := (&attack.FirmwareModulation{Target: "cam-1"}).Execute(env)
	if !res.Succeeded {
		t.Fatalf("tamper failed: %s", res)
	}
	sys.Home.Run(2 * time.Minute)
	if !alerts.of("cam-1").hasEvidence(func(e core.Signal) bool {
		return e.Kind == "firmware-tamper" || strings.HasPrefix(e.Kind, "dpi:")
	}) {
		t.Errorf("firmware tamper not detected; alerts=%v", *alerts)
	}
}

func TestUnprotectedBaselineSeesNothing(t *testing.T) {
	sys, err := New(Options{Seed: 37, DisableProtection: true,
		Flaws: service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true}})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Protected() {
		t.Fatal("Protected() = true")
	}
	env := sys.Home.AttackEnv()
	(&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 5 * time.Second}).Execute(env)
	sys.Home.Run(time.Minute)
	// Beacons flow freely without XLF.
	beacons := 0
	for _, r := range sys.Home.WANCap.Records() {
		if r.Dst == "wan:cnc" {
			beacons++
		}
	}
	if beacons == 0 {
		t.Error("expected unimpeded beacons on the unprotected baseline")
	}
	if strings.Contains(sys.Report(), "alerts:") {
		t.Error("unprotected report mentions alerts")
	}
}

func TestLearnedModelCatchesDFALessDeviceAbuse(t *testing.T) {
	sys := protectedSystem(t, 43)
	alerts := recordAlerts(sys)
	// The smart speaker has no automation DFA; XLF learned its typical
	// traces. A benign session (real device interactions, with their
	// radio traffic) raises nothing.
	for _, ev := range []string{"wake", "query", "response", "idle"} {
		if err := sys.Home.UserEvent("speaker-1", ev); err != nil {
			t.Fatal(err)
		}
	}
	sys.Home.Run(30 * time.Second)
	if got := alerts.of("speaker-1"); len(got) != 0 {
		t.Fatalf("benign speaker session alerted: %v", got)
	}

	// A compromised speaker suddenly emits transitions never seen in
	// benign use (e.g. straight from idle into bulk exfil-style events).
	sys2 := protectedSystem(t, 47)
	alerts2 := recordAlerts(sys2)
	for _, ev := range []string{"wake", "exfil", "exfil", "exfil"} {
		sys2.Home.Cloud.PublishDeviceEvent("speaker-1", ev, 0)
	}
	sys2.Home.Run(30 * time.Second)
	if !alerts2.of("speaker-1").hasEvidence(func(e core.Signal) bool { return e.Kind == "unseen-transition" }) {
		t.Error("learned model missed the never-seen transitions")
	}
}

// TestDeterministicReplay runs one seed twice and compares the Report and
// the alert stream: each alert's String and the kinds of its evidence.
func TestDeterministicReplay(t *testing.T) {
	run := func() string {
		sys := protectedSystem(t, 99)
		alerts := recordAlerts(sys)
		env := sys.Home.AttackEnv()
		(&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 10 * time.Second}).Execute(env)
		sys.Home.Run(2 * time.Minute)
		var b strings.Builder
		b.WriteString(sys.Report())
		for _, a := range *alerts {
			fmt.Fprintf(&b, "%s\n", a)
			for _, e := range a.Evidence {
				fmt.Fprintf(&b, "  %s\n", e.Kind)
			}
		}
		if len(*alerts) == 0 {
			t.Error("the replayed campaign raised no alert")
		}
		return b.String()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("replay diverged:\n--- run1 ---\n%s\n--- run2 ---\n%s", a, b)
	}
}

func TestExfiltrationThroughEnrolledChannelCaughtByVolume(t *testing.T) {
	// A compromised camera exfiltrates through its own vendor endpoint:
	// the destination is enrolled (NAC passes) and the payload is
	// encrypted (DPI blind). Only the uplink volume baseline catches it.
	sys := protectedSystem(t, 101)
	alerts := recordAlerts(sys)
	// Let baselines warm up on normal keepalives first.
	sys.Home.Run(10 * time.Minute)
	sys.Home.Devices["cam-1"].Compromise("exfil-implant")
	sys.Home.Kernel.Every(time.Second, 100*time.Millisecond, "exfil", func() {
		if !sys.Home.Devices["cam-1"].Compromised {
			return
		}
		sys.Home.Gateway.SendOut(sys.Home.Net, &netsim.Packet{
			Src: "lan:cam-1", SrcPort: 7443,
			Dst: "wan:stream.smartcam.example", DstPort: 443,
			Proto: "TLS", Encrypted: true, Size: 1400, App: "attack:exfil",
		})
	})
	sys.Home.Run(sys.Home.Kernel.Now() + 5*time.Minute)
	if !alerts.of("cam-1").hasEvidence(func(e core.Signal) bool { return e.Kind == "traffic-anomaly" }) {
		t.Error("enrolled-channel exfiltration escaped the volume baseline")
	}
}

func TestDetectionSurvivesPacketLoss(t *testing.T) {
	// Failure injection: the campaign runs from a LAN foothold whose
	// link loses 10% of packets. Scan/brute-force/loader traffic is
	// repetitive, so the campaign must still be detected despite dropped
	// evidence packets.
	sys := protectedSystem(t, 53)
	alerts := recordAlerts(sys)
	lossy := netsim.DefaultLAN()
	lossy.Loss = 0.10
	env := sys.Home.AttackEnv()
	env.AttackerLAN = "lan:lossy-attacker"
	if err := sys.Home.Net.Attach(&netsim.FuncNode{Address: env.AttackerLAN}, lossy); err != nil {
		t.Fatal(err)
	}
	(&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 10 * time.Second}).Execute(env)
	sys.Home.Run(2 * time.Minute)
	if _, dropped, _ := sys.Home.Net.Stats(); dropped == 0 {
		t.Fatal("the lossy link dropped nothing")
	}
	if len(alerts.of("cam-1")) == 0 {
		t.Error("campaign undetected under 10% packet loss")
	}
}

func TestShapingDoesNotConfuseOwnDetectors(t *testing.T) {
	// Rate-equalised cover traffic is machine-periodic by design; it must
	// not generate alerts against the home's own devices (shaped WAN
	// flows carry the gateway's address, which is never attributed). The
	// shaper goes on the gateway directly, as E2 installs it.
	sys := protectedSystem(t, 67)
	sh := shaping.New(sys.Home.Kernel, shaping.Level(1.0))
	sys.Home.Gateway.Shaper = sh.GatewayHook()
	alerts := recordAlerts(sys)
	sys.Home.Run(3 * time.Minute)
	if len(*alerts) != 0 {
		t.Errorf("shaped benign home raised %d alerts: %v", len(*alerts), *alerts)
	}
	// Dummy cells are actually flowing.
	if sh.Stats().DummyPackets == 0 {
		t.Error("shaper emitted no cover traffic")
	}

	// And detection of a real campaign still works under shaping: the
	// evidence (LAN scans, DPI loader, NAC denials) is pre-shaper.
	sys2 := protectedSystem(t, 71)
	sys2.Home.Gateway.Shaper = shaping.New(sys2.Home.Kernel, shaping.Level(1.0)).GatewayHook()
	alerts2 := recordAlerts(sys2)
	(&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 10 * time.Second}).Execute(sys2.Home.AttackEnv())
	sys2.Home.Run(2 * time.Minute)
	if len(alerts2.of("cam-1")) == 0 {
		t.Error("campaign undetected under full shaping")
	}
}

func TestLightweightEncryptionOption(t *testing.T) {
	sys, err := New(Options{Seed: 61, LightweightEncryption: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Home.Sessions) == 0 {
		t.Fatal("no channel sessions established")
	}
	sys.Home.Run(time.Minute)
	rep := sys.Report()
	if !strings.Contains(rep, "lightweight encryption sessions") {
		t.Errorf("report missing session inventory:\n%s", rep)
	}
	// Sealed traffic is flowing on the wire.
	sealed := 0
	for _, r := range sys.Home.WANCap.Records() {
		if r.Proto == "XLF-LWC" {
			sealed++
		}
	}
	if sealed == 0 {
		t.Error("no sealed keepalives observed")
	}
	// The unprotected baseline never establishes sessions even if asked.
	base, err := New(Options{Seed: 61, LightweightEncryption: true, DisableProtection: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Home.Sessions) != 0 {
		t.Error("unprotected baseline created sessions")
	}
}

func TestReportContents(t *testing.T) {
	sys := protectedSystem(t, 41)
	sys.Home.Run(30 * time.Second)
	rep := sys.Report()
	for _, want := range []string{"XLF report", "network:", "NAC denials", "alerts:"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	// Figure 4 draws the functions the system runs.
	if !strings.Contains(Figure4(), "Traffic shaping") {
		t.Error("figure 4 incomplete")
	}
}
