package testbed

import (
	"testing"
	"time"

	"xlf/internal/netsim"
	"xlf/internal/service"
)

func newHome(t *testing.T) *Home {
	t.Helper()
	h, err := New(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHomeAssembly(t *testing.T) {
	h := newHome(t)
	if len(h.Devices) != 11 {
		t.Errorf("devices = %d, want 11 (catalog)", len(h.Devices))
	}
	// Attach refuses an address that is already taken, so a refused
	// probe proves the node is attached.
	attached := func(a netsim.Addr) bool {
		return h.Net.Attach(&netsim.FuncNode{Address: a}, netsim.DefaultLAN()) != nil
	}
	// Every device's vendor domain resolves via the home DNS.
	for id, d := range h.Devices {
		for _, dom := range d.CloudDomains {
			addr, ok := h.CloudAddrOf[dom]
			if !ok {
				t.Errorf("%s domain %q has no cloud endpoint", id, dom)
				continue
			}
			if !attached(addr) {
				t.Errorf("cloud endpoint %s not attached", addr)
			}
		}
		if !attached(netsim.Addr("lan:" + id)) {
			t.Errorf("device %s not attached to the LAN", id)
		}
	}
	// Attacker footholds and infrastructure are attached.
	for _, a := range []netsim.Addr{"wan:attacker", "lan:attacker", "wan:cnc", "wan:victim", "wan:dns", "lan:resolver"} {
		if !attached(a) {
			t.Errorf("missing node %s", a)
		}
	}
}

func TestKeepalivesFlowToVendorClouds(t *testing.T) {
	h := newHome(t)
	if err := h.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(h.WANCap.Records()) == 0 {
		t.Fatal("no WAN traffic from keepalives")
	}
	// All WAN traffic is NATted: source must be the gateway's WAN face.
	for _, r := range h.WANCap.Records() {
		if r.Src.IsLAN() {
			t.Fatalf("un-NATted packet on WAN: %+v", r)
		}
	}
}

func TestUserEventFlow(t *testing.T) {
	h := newHome(t)
	found := false
	h.Cloud.EventMonitor = func(ev service.Event) {
		found = found || ev.DeviceID == "bulb-1" && ev.Name == "on"
	}
	if err := h.UserEvent("bulb-1", "on"); err != nil {
		t.Fatal(err)
	}
	// "dim" is legal only in the bulb's on state.
	if err := h.Devices["bulb-1"].Apply("dim"); err != nil {
		t.Errorf("device state not updated: %v", err)
	}
	// The event reached the cloud.
	if !found {
		t.Error("cloud did not see the event")
	}
	// Illegal event rejected.
	if err := h.UserEvent("bulb-1", "brew"); err == nil {
		t.Error("illegal event accepted")
	}
	if err := h.UserEvent("ghost", "on"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestCloudCommandReachesDevice(t *testing.T) {
	h := newHome(t)
	if err := h.Cloud.InstallApp(&service.SmartApp{
		ID:    "heat-light",
		Rules: []service.Rule{{TriggerDevice: "thermo-1", TriggerEvent: "temperature", ActionDevice: "bulb-1", ActionCommand: "on"}},
		Grants: []service.Grant{
			{DeviceID: "thermo-1", Capability: "temperature"},
			{DeviceID: "bulb-1", Capability: "switch"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	h.Cloud.EventMonitor = func(ev service.Event) {
		found = found || ev.DeviceID == "bulb-1" && ev.Name == "on"
	}
	if err := h.Cloud.PublishDeviceEvent("thermo-1", "temperature", 70); err != nil {
		t.Fatal(err)
	}
	// Delivery is asynchronous over the simulated network.
	if err := h.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// "dim" is legal only in the bulb's on state.
	if err := h.Devices["bulb-1"].Apply("dim"); err != nil {
		t.Errorf("bulb not on after cloud command: %v", err)
	}
	// The acknowledging event flowed back into the cloud.
	if !found {
		t.Error("cloud did not see the device acknowledgement")
	}
}

func TestClimateAutomationEndToEnd(t *testing.T) {
	h := newHome(t)
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
	if err := h.Cloud.PublishDeviceEvent("thermo-1", "temperature", 92); err != nil {
		t.Fatal(err)
	}
	opened := false
	for _, cmd := range h.Cloud.CommandLog() {
		if cmd.DeviceID == "window-1" && cmd.Name == "open" {
			opened = true
		}
	}
	if !opened {
		t.Error("automation did not open the window above 80F")
	}
}

func TestOTAFlashUpdatesDeviceModel(t *testing.T) {
	h := newHome(t)
	img := h.OTA.Build("9.9", []byte("new-cam-firmware"))
	if err := h.OTA.Push("cam-1", img); err != nil {
		t.Fatal(err)
	}
	fw := h.Devices["cam-1"].Firmware
	if fw.Version != "9.9" || !fw.Signed || fw.Tampered {
		t.Errorf("firmware after flash = %+v", fw)
	}
	if !fw.Verify() {
		t.Error("flashed firmware fails verification")
	}
}

func TestVulnerableFlagsPropagate(t *testing.T) {
	h, err := New(Config{Seed: 5, Flaws: service.Flaws{UnsignedEvents: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Cloud.PublishRaw(service.Event{DeviceID: "cam-1", Name: "motion", Source: "spoofed:x"}); err != nil {
		t.Errorf("flawed platform rejected raw publish: %v", err)
	}
}

func TestDeterministicAssembly(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		h := newHome(t)
		if err := h.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		return h.Net.Stats()
	}
	d1, dr1, b1 := run()
	d2, dr2, b2 := run()
	if d1 != d2 || dr1 != dr2 || b1 != b2 {
		t.Errorf("assembly not deterministic: (%d,%d,%d) vs (%d,%d,%d)", d1, dr1, b1, d2, dr2, b2)
	}
}

func TestZigbeeLinkForSensors(t *testing.T) {
	h := newHome(t)
	// Sensor-class devices ride the slower 802.15.4 medium; verify the
	// smoke detector's traffic is slower than the TV-class fridge's.
	start := h.Kernel.Now()
	h.Net.Send(&netsim.Packet{Src: "lan:smoke-1", Dst: "lan:gw", Size: 1000})
	h.Net.Send(&netsim.Packet{Src: "lan:fridge-1", Dst: "lan:gw", Size: 1000})
	_ = start
	var smokeAt, fridgeAt time.Duration
	h.Net.AddTap(netsim.TapLAN, func(dir netsim.TapDirection, pkt *netsim.Packet) {
		switch pkt.Src {
		case "lan:smoke-1":
			smokeAt = pkt.DeliveredAt
		case "lan:fridge-1":
			fridgeAt = pkt.DeliveredAt
		}
	})
	if err := h.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if smokeAt == 0 || fridgeAt == 0 {
		t.Fatal("packets not observed")
	}
	if smokeAt <= fridgeAt {
		t.Errorf("zigbee sensor (%s) not slower than wifi appliance (%s)", smokeAt, fridgeAt)
	}
}
