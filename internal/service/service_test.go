package service

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"testing"
	"time"
)

func newCloud(t *testing.T, flaws Flaws) *Cloud {
	t.Helper()
	var clock time.Duration
	c := NewCloud(flaws, func() time.Duration { clock += time.Millisecond; return clock })
	for _, d := range []struct {
		id   string
		caps []string
	}{
		{"thermo-1", []string{"thermostat", "temperature"}},
		{"window-1", []string{"lock", "contact"}},
		{"bulb-1", []string{"switch", "level"}},
		{"cam-1", []string{"camera", "motion"}},
	} {
		h := &DeviceHandler{ID: d.id, Caps: d.caps, CapOfCommand: map[string]string{
			"open": "lock", "unlock": "lock", "lock": "lock",
			"on": "switch", "off": "switch", "dim": "level",
			"heat": "thermostat", "cool": "thermostat",
			"record": "camera", "disable": "camera",
		}}
		if err := c.RegisterDevice(h); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func f80() *float64 { v := 80.0; return &v }

func TestTriggerActionRule(t *testing.T) {
	c := newCloud(t, Flaws{})
	app := &SmartApp{
		ID:     "climate",
		Rules:  []Rule{{TriggerDevice: "thermo-1", TriggerEvent: "temperature", TriggerAbove: f80(), ActionDevice: "window-1", ActionCommand: "open"}},
		Grants: []Grant{{DeviceID: "window-1", Capability: "lock"}, {DeviceID: "thermo-1", Capability: "temperature"}},
	}
	if err := c.InstallApp(app); err != nil {
		t.Fatal(err)
	}
	// Below threshold: no action.
	if err := c.PublishDeviceEvent("thermo-1", "temperature", 75); err != nil {
		t.Fatal(err)
	}
	if got := len(c.CommandLog()); got != 0 {
		t.Fatalf("commands after sub-threshold event = %d", got)
	}
	// Above threshold: window opens.
	if err := c.PublishDeviceEvent("thermo-1", "temperature", 85); err != nil {
		t.Fatal(err)
	}
	log := c.CommandLog()
	if len(log) != 1 || log[0].DeviceID != "window-1" || log[0].Name != "open" || log[0].IssuedBy != "app:climate" {
		t.Fatalf("command log = %+v", log)
	}
}

func TestSandboxBlocksUngrantedCommands(t *testing.T) {
	c := newCloud(t, Flaws{}) // hardened: fine-grained grants
	evil := &SmartApp{
		ID:     "rogue",
		Grants: []Grant{{DeviceID: "bulb-1", Capability: "switch"}},
		Hook: func(ev Event) []Command {
			// Holding only bulb switch, try to unlock the window.
			return []Command{{DeviceID: "window-1", Name: "unlock"}}
		},
		Malicious: true,
	}
	if err := c.InstallApp(evil); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishDeviceEvent("bulb-1", "on", 1); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range c.CommandLog() {
		if cmd.DeviceID == "window-1" {
			t.Fatal("sandbox let a rogue app unlock the window")
		}
	}
}

func TestCoarseGrantsOverPrivilege(t *testing.T) {
	c := newCloud(t, Flaws{CoarseGrants: true}) // the SmartThings flaw
	evil := &SmartApp{
		ID: "rogue",
		// Only the contact (sensor) capability was requested...
		Grants: []Grant{{DeviceID: "window-1", Capability: "contact"}},
		Hook: func(ev Event) []Command {
			return []Command{{DeviceID: "window-1", Name: "unlock"}}
		},
		Malicious: true,
	}
	if err := c.InstallApp(evil); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishDeviceEvent("bulb-1", "on", 1); err == nil {
		// ...but the coarse grant lets it actuate the lock.
		found := false
		for _, cmd := range c.CommandLog() {
			if cmd.DeviceID == "window-1" && cmd.Name == "unlock" {
				found = true
			}
		}
		if !found {
			t.Fatal("over-privilege flaw did not manifest")
		}
	} else {
		t.Fatal(err)
	}
}

func TestEventSpoofing(t *testing.T) {
	hardened := newCloud(t, Flaws{})
	spoof := Event{DeviceID: "cam-1", Name: "motion", Source: "spoofed:attacker"}
	if err := hardened.PublishRaw(spoof); !errors.Is(err, ErrSpoofRejected) {
		t.Errorf("hardened platform accepted spoof: %v", err)
	}
	vulnerable := newCloud(t, Flaws{UnsignedEvents: true})
	var seen []Event
	vulnerable.EventMonitor = func(ev Event) { seen = append(seen, ev) }
	if err := vulnerable.PublishRaw(spoof); err != nil {
		t.Errorf("vulnerable platform rejected spoof: %v", err)
	}
	if len(seen) != 1 || seen[0].Source != spoof.Source {
		t.Errorf("monitor saw %+v, want the spoofed event", seen)
	}
}

func TestInstallValidation(t *testing.T) {
	c := newCloud(t, Flaws{})
	if err := c.InstallApp(&SmartApp{ID: ""}); err == nil {
		t.Error("empty app ID accepted")
	}
	if err := c.InstallApp(&SmartApp{ID: "x", Grants: []Grant{{DeviceID: "ghost"}}}); err == nil {
		t.Error("grant on unknown device accepted")
	}
	if err := c.InstallApp(&SmartApp{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallApp(&SmartApp{ID: "a"}); err == nil {
		t.Error("duplicate app accepted")
	}
	c.UninstallApp("a")
	if len(c.Apps()) != 0 {
		t.Error("uninstall failed")
	}
	if err := c.RegisterDevice(&DeviceHandler{ID: "thermo-1"}); err == nil {
		t.Error("duplicate device accepted")
	}
}

func TestMonitorsSeeTraffic(t *testing.T) {
	c := newCloud(t, Flaws{})
	var evs []Event
	var cmds []Command
	c.EventMonitor = func(ev Event) { evs = append(evs, ev) }
	c.CommandMonitor = func(cmd Command) { cmds = append(cmds, cmd) }
	app := &SmartApp{
		ID:     "lights",
		Rules:  []Rule{{TriggerDevice: "cam-1", TriggerEvent: "motion", ActionDevice: "bulb-1", ActionCommand: "on"}},
		Grants: []Grant{{DeviceID: "bulb-1", Capability: "switch"}},
	}
	c.InstallApp(app)
	c.PublishDeviceEvent("cam-1", "motion", 1)
	if len(evs) != 1 || len(cmds) != 1 {
		t.Errorf("monitors saw %d events %d commands, want 1/1", len(evs), len(cmds))
	}
}

func TestOTASignedFlow(t *testing.T) {
	c := newCloud(t, Flaws{})
	seed := bytes.Repeat([]byte{9}, 32)
	ota, err := NewOTAPipeline(c, seed)
	if err != nil {
		t.Fatal(err)
	}
	var flashed []OTAImage
	ota.Flash = func(deviceID string, img OTAImage) error {
		flashed = append(flashed, img)
		return nil
	}
	img := ota.Build("2.0", []byte("new-firmware"))
	if err := VerifyImage(ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey), img); err != nil {
		t.Fatalf("fresh image fails verification: %v", err)
	}
	if err := ota.Push("cam-1", img); err != nil {
		t.Fatal(err)
	}
	if len(flashed) != 1 {
		t.Fatal("image not flashed")
	}

	// Tampered image rejected on the hardened platform.
	bad := img
	bad.Data = append([]byte(nil), img.Data...)
	bad.Data[0] ^= 0xFF
	if err := ota.Push("cam-1", bad); err == nil {
		t.Error("tampered image pushed")
	}
	// Unsigned image rejected.
	unsigned := OTAImage{Version: "2.1", Data: []byte("x"), Fingerprint: 0}
	if err := ota.Push("cam-1", unsigned); err == nil {
		t.Error("unsigned image pushed")
	}
	if len(flashed) != 1 {
		t.Errorf("%d images flashed, want 1: a rejected image reached the device", len(flashed))
	}
}

func TestOTAFlawAllowsUnsigned(t *testing.T) {
	c := newCloud(t, Flaws{OpenRedirectOTA: true})
	ota, err := NewOTAPipeline(c, bytes.Repeat([]byte{9}, 32))
	if err != nil {
		t.Fatal(err)
	}
	var flashed int
	ota.Flash = func(deviceID string, img OTAImage) error { flashed++; return nil }
	evil := OTAImage{Version: "evil", Data: []byte("backdoor")}
	if err := ota.Push("cam-1", evil); err != nil {
		t.Fatalf("flawed pipeline rejected: %v", err)
	}
	if flashed != 1 {
		t.Error("malicious image not delivered")
	}
	if err := ota.Push("ghost", evil); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("unknown device: %v", err)
	}
}

func TestOTASeedValidation(t *testing.T) {
	if _, err := NewOTAPipeline(newCloud(t, Flaws{}), []byte("short")); err == nil {
		t.Error("short seed accepted")
	}
}
