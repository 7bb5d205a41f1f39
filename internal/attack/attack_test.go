package attack_test

import (
	"strings"
	"testing"
	"time"

	"xlf/internal/attack"
	"xlf/internal/netsim"
	"xlf/internal/service"
	"xlf/internal/testbed"
)

func vulnerableHome(t *testing.T) *testbed.Home {
	t.Helper()
	h, err := testbed.New(testbed.Config{
		Seed:  42,
		Flaws: service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func hardenedHome(t *testing.T) *testbed.Home {
	t.Helper()
	h, err := testbed.New(testbed.Config{Seed: 42, ResolverMode: "DoT"})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestTableIIAttacksSucceedOnVulnerableHome(t *testing.T) {
	h := vulnerableHome(t)
	env := h.AttackEnv()
	for _, a := range attack.TableIIAttacks() {
		res := a.Execute(env)
		if !res.Succeeded {
			t.Errorf("%s did not succeed on the vulnerable home: %s", a.Name(), res)
		}
		v, m, i := a.TableII()
		if v == "" || m == "" || i == "" {
			t.Errorf("%s missing Table II annotations", a.Name())
		}
		if a.Layer() != attack.LayerDevice {
			t.Errorf("%s layer = %s, want device", a.Name(), a.Layer())
		}
	}
	if err := h.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The attacks left observable traffic.
	if h.LANCap.Len() == 0 {
		t.Error("attacks generated no observable LAN traffic")
	}
}

func TestMitMPasswordStealing(t *testing.T) {
	h := vulnerableHome(t)
	res := (&attack.StaticPasswordMitM{Target: "bulb-1"}).Execute(h.AttackEnv())
	if !res.Succeeded {
		t.Fatalf("attack failed: %s", res)
	}
	if res.Loot["password"] != "admin" {
		t.Errorf("loot = %v", res.Loot)
	}
	if !h.Devices["bulb-1"].Compromised {
		t.Error("bulb not marked compromised")
	}
	// Rotating credentials blocks the takeover.
	h2 := vulnerableHome(t)
	h2.Devices["bulb-1"].Creds.Password = "rotated-strong"
	h2.Devices["bulb-1"].Creds.Default = false
	res2 := (&attack.StaticPasswordMitM{Target: "bulb-1", Sniffed: h.Devices["bulb-1"].Creds}).Execute(h2.AttackEnv())
	if res2.Succeeded {
		t.Error("stale sniffed credentials still worked after rotation")
	}
}

func TestBufferOverflowBounds(t *testing.T) {
	h := vulnerableHome(t)
	if res := (&attack.BufferOverflow{Target: "wallpad-1", PayloadLen: 100}).Execute(h.AttackEnv()); res.Succeeded {
		t.Error("in-bounds payload exploited")
	}
	res := (&attack.BufferOverflow{Target: "wallpad-1", PayloadLen: 2048}).Execute(h.AttackEnv())
	if !res.Succeeded {
		t.Fatalf("overflow failed: %s", res)
	}
	if h.Devices["wallpad-1"].State() != "unlocked" {
		t.Error("shellcode did not unlock")
	}
	// Patched firmware resists.
	h2 := vulnerableHome(t)
	h2.Devices["wallpad-1"].Firmware.Version = "3.1.0"
	if res := (&attack.BufferOverflow{Target: "wallpad-1", PayloadLen: 2048}).Execute(h2.AttackEnv()); res.Succeeded {
		t.Error("patched firmware exploited")
	}
}

func TestFirmwareModulationBlockedBySigning(t *testing.T) {
	vulnerable := vulnerableHome(t)
	res := (&attack.FirmwareModulation{Target: "cam-1"}).Execute(vulnerable.AttackEnv())
	if !res.Succeeded {
		t.Fatalf("tamper failed on open OTA: %s", res)
	}
	if !vulnerable.Devices["cam-1"].Firmware.Tampered {
		t.Error("firmware not tampered")
	}

	hardened := hardenedHome(t)
	res = (&attack.FirmwareModulation{Target: "cam-1"}).Execute(hardened.AttackEnv())
	if res.Succeeded {
		t.Errorf("signed OTA pipeline accepted tampered image: %s", res)
	}
	if !strings.Contains(res.Blocked, "OTA") {
		t.Errorf("blocked reason = %q", res.Blocked)
	}
}

func TestMiraiRecruitmentChain(t *testing.T) {
	h := vulnerableHome(t)
	m := &attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 5 * time.Second}
	res := m.Execute(h.AttackEnv())
	if !res.Succeeded {
		t.Fatalf("recruitment failed: %s", res)
	}
	// The camera has telnet + default creds in the catalog.
	found := false
	for _, id := range m.Recruited() {
		if id == "cam-1" {
			found = true
		}
	}
	if !found {
		t.Errorf("recruited = %v, want cam-1 included", m.Recruited())
	}
	if err := h.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Beacons reached the WAN.
	beacons := 0
	for _, r := range h.WANCap.Records() {
		if r.Dst == "wan:cnc" {
			beacons++
		}
	}
	if beacons < 5 {
		t.Errorf("C&C beacons on WAN = %d, want several", beacons)
	}
}

func TestMiraiBlockedWithoutDefaults(t *testing.T) {
	h := vulnerableHome(t)
	for _, d := range h.Devices {
		d.Creds.Default = false
		d.Creds.Password = "rotated-" + d.ID
	}
	res := (&attack.MiraiRecruit{CNC: "wan:cnc"}).Execute(h.AttackEnv())
	if res.Succeeded {
		t.Error("recruitment succeeded despite rotated credentials")
	}
}

func TestDDoSFloodNeedsBots(t *testing.T) {
	h := vulnerableHome(t)
	env := h.AttackEnv()
	if res := (&attack.DDoSFlood{Victim: "wan:victim"}).Execute(env); res.Succeeded {
		t.Error("flood without bots succeeded")
	}
	(&attack.MiraiRecruit{CNC: "wan:cnc"}).Execute(env)
	h.Run(30 * time.Second)
	res := (&attack.DDoSFlood{Victim: "wan:victim", Rate: 50, Duration: 5 * time.Second}).Execute(env)
	if !res.Succeeded {
		t.Fatalf("flood failed: %s", res)
	}
	h.Run(h.Kernel.Now() + 10*time.Second)
	floodPkts := 0
	for _, r := range h.WANCap.Records() {
		if r.Dst == "wan:victim" {
			floodPkts++
		}
	}
	if floodPkts < 100 {
		t.Errorf("flood packets on WAN = %d, want lots", floodPkts)
	}
}

func TestDNSPoisonCleartextVsDoT(t *testing.T) {
	h := vulnerableHome(t) // cleartext DNS
	env := h.AttackEnv()
	p := &attack.DNSPoison{Resolver: h.Resolver, Domain: "dropcam.example", Redirect: "wan:attacker"}
	if res := p.Execute(env); !res.Succeeded {
		t.Errorf("cleartext poisoning failed: %s", res)
	}

	h2 := hardenedHome(t) // DoT
	p2 := &attack.DNSPoison{Resolver: h2.Resolver, Domain: "dropcam.example", Redirect: "wan:attacker"}
	if res := p2.Execute(h2.AttackEnv()); res.Succeeded {
		t.Errorf("DoT accepted forgery: %s", res)
	}
}

func TestEventSpoofing(t *testing.T) {
	h := vulnerableHome(t)
	res := (&attack.EventSpoof{DeviceID: "cam-1", Event: "motion", Value: 1}).Execute(h.AttackEnv())
	if !res.Succeeded {
		t.Fatalf("spoof rejected on vulnerable platform: %s", res)
	}
	h2 := hardenedHome(t)
	res = (&attack.EventSpoof{DeviceID: "cam-1", Event: "motion", Value: 1}).Execute(h2.AttackEnv())
	if res.Succeeded {
		t.Error("hardened platform accepted spoof")
	}
}

func TestRogueAppOverPrivilege(t *testing.T) {
	h := vulnerableHome(t) // CoarseGrants on
	res := (&attack.RogueApp{
		AppID: "free-wallpaper", CoverDevice: "window-1", CoverCap: "contact",
		TargetDevice: "window-1", TargetCommand: "unlock",
	}).Execute(h.AttackEnv())
	if !res.Succeeded {
		t.Fatalf("over-privilege abuse failed: %s", res)
	}

	h2 := hardenedHome(t) // fine-grained grants
	res = (&attack.RogueApp{
		AppID: "free-wallpaper", CoverDevice: "window-1", CoverCap: "contact",
		TargetDevice: "window-1", TargetCommand: "unlock",
	}).Execute(h2.AttackEnv())
	if res.Succeeded {
		t.Error("fine-grained sandbox let the hidden command through")
	}
}

func TestPolicyAbuse(t *testing.T) {
	h := vulnerableHome(t)
	// The §IV-C3 automation: open the window above 80F.
	above := 80.0
	if err := h.Cloud.InstallApp(&service.SmartApp{
		ID: "climate-window",
		Rules: []service.Rule{{
			TriggerDevice: "thermo-1", TriggerEvent: "temperature", TriggerAbove: &above,
			ActionDevice: "window-1", ActionCommand: "open",
		}},
		Grants: []service.Grant{
			{DeviceID: "thermo-1", Capability: "temperature"},
			{DeviceID: "window-1", Capability: "lock"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	res := (&attack.PolicyAbuse{ThermoID: "thermo-1", FakeTempF: 95}).Execute(h.AttackEnv())
	if !res.Succeeded {
		t.Fatalf("policy abuse failed: %s", res)
	}
	// Without the automation installed, nothing reacts.
	h2 := vulnerableHome(t)
	res = (&attack.PolicyAbuse{ThermoID: "thermo-1", FakeTempF: 95}).Execute(h2.AttackEnv())
	if res.Succeeded {
		t.Error("policy abuse succeeded with no automation installed")
	}
}

func TestResultString(t *testing.T) {
	ok := attack.Result{Attack: "x", Succeeded: true, Impact: "boom"}
	if !strings.Contains(ok.String(), "SUCCESS") {
		t.Error(ok.String())
	}
	blocked := attack.Result{Attack: "x", Blocked: "nope"}
	if !strings.Contains(blocked.String(), "BLOCKED") {
		t.Error(blocked.String())
	}
}

func TestUnknownTargets(t *testing.T) {
	h := vulnerableHome(t)
	env := h.AttackEnv()
	for _, a := range []attack.Attack{
		&attack.StaticPasswordMitM{Target: "ghost"},
		&attack.BufferOverflow{Target: "ghost", PayloadLen: 999},
		&attack.FirmwareModulation{Target: "ghost"},
		&attack.Rickrolling{Target: "ghost"},
		&attack.UPnPSniff{Target: "ghost"},
		&attack.MaliciousMail{Target: "ghost"},
		&attack.OpenWiFiMitM{Target: "ghost", Pivot: "bulb-1"},
	} {
		if res := a.Execute(env); res.Succeeded {
			t.Errorf("%s succeeded on missing device", a.Name())
		}
	}
}

func TestSpamGeneratesWANTraffic(t *testing.T) {
	h := vulnerableHome(t)
	res := (&attack.MaliciousMail{Target: "fridge-1", Burst: 30}).Execute(h.AttackEnv())
	if !res.Succeeded {
		t.Fatalf("infection failed: %s", res)
	}
	h.Run(time.Minute)
	smtp := 0
	for _, r := range h.WANCap.Records() {
		if r.DstPort == 25 {
			smtp++
		}
	}
	if smtp < 25 {
		t.Errorf("SMTP bursts on WAN = %d, want ~30", smtp)
	}
}

var _ = netsim.Addr("") // keep import for test helpers
