package testbed

import (
	"strings"
	"testing"
	"time"

	"xlf/internal/channel"
	"xlf/internal/lwc"
	"xlf/internal/obs"
)

// gatewayPeer derives the gateway side of a device's session from the
// same pairing key and the device's profile, as the Core would.
func gatewayPeer(t *testing.T, h *Home, id string) *channel.Session {
	t.Helper()
	peer, err := channel.ForProfile(h.Devices[id].Profile, lwc.NewRegistry(), []byte("xlf-pairing-"+id))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return peer
}

func TestLightweightEncryptionSessions(t *testing.T) {
	h, err := New(Config{Seed: 9, LightweightEncryption: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every catalog device's hardware affords some cipher, so every
	// device gets a session, and the gateway negotiates the same one.
	if len(h.Sessions) != len(h.Devices) {
		t.Errorf("sessions = %d, devices = %d", len(h.Sessions), len(h.Devices))
	}
	for id, s := range h.Sessions {
		if peer := gatewayPeer(t, h, id); s.Algorithm != peer.Algorithm {
			t.Errorf("%s negotiated %s but gateway holds %s", id, s.Algorithm, peer.Algorithm)
		}
	}

	// Run: keepalives flow sealed.
	if err := h.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	sealedSeen := 0
	for _, r := range h.WANCap.Records() {
		if r.Proto == "XLF-LWC" {
			sealedSeen++
			// Observers never see the payload on encrypted packets.
			if len(r.Payload) != 0 {
				t.Fatal("capture exposed sealed payload bytes")
			}
		}
	}
	if sealedSeen == 0 {
		t.Error("no sealed keepalives on the WAN")
	}

	// Battery drains on battery devices that seal traffic.
	bulb := h.Devices["bulb-1"]
	full := 2.0 * 3600 * 3 * 1e6
	if bulb.BatteryUJ >= full {
		t.Error("bulb battery not drained by sealing")
	}
}

func TestGatewayPeerOpensDeviceTraffic(t *testing.T) {
	h, err := New(Config{Seed: 9, LightweightEncryption: true})
	if err != nil {
		t.Fatal(err)
	}
	devSess := h.Sessions["thermo-1"]
	if devSess == nil {
		t.Fatal("missing thermo session")
	}
	gwSess := gatewayPeer(t, h, "thermo-1")
	sealed, err := devSess.Seal(nil, []byte("temperature=70.5"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := gwSess.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "temperature") {
		t.Errorf("opened = %q", got)
	}
}

func TestEncryptionDisabledByDefault(t *testing.T) {
	h := newHome(t)
	if len(h.Sessions) != 0 {
		t.Error("sessions created without LightweightEncryption")
	}
}

// TestExhaustedDeviceGoesDark: a device whose battery cannot pay for a
// seal sends no keepalive (its packet and payload buffer go back to the
// network unsent), while the other devices keep sealing theirs.
func TestExhaustedDeviceGoesDark(t *testing.T) {
	tr := obs.NewTracer(1<<16, nil)
	h, err := New(Config{Seed: 9, LightweightEncryption: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	h.Devices["bulb-1"].BatteryUJ = 0
	if err := h.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Post-NAT, a keepalive's source is the gateway: count per device
	// from the keepalive spans, and check that the WAN saw exactly the
	// sealed ones.
	sealed := map[string]int{}
	dark := 0
	for _, s := range tr.Spans() {
		switch {
		case s.Op != "keepalive":
		case s.Cause == "sealed":
			sealed[s.Device]++
		case s.Cause == "battery-exhausted" && s.Device == "bulb-1":
			dark++
		}
	}
	if sealed["bulb-1"] != 0 || dark == 0 {
		t.Errorf("exhausted bulb sealed %d keepalives and went dark %d times", sealed["bulb-1"], dark)
	}
	if sealed["thermo-1"] == 0 {
		t.Error("thermostat sealed no keepalive")
	}
	total, onWAN := 0, 0
	for _, n := range sealed {
		total += n
	}
	for _, r := range h.WANCap.Records() {
		if r.Proto == "XLF-LWC" {
			onWAN++
		}
	}
	if onWAN != total {
		t.Errorf("WAN saw %d sealed keepalives, devices sealed %d", onWAN, total)
	}
}
