package testbed

import (
	"strings"
	"testing"
	"time"

	"xlf/internal/channel"
	"xlf/internal/lwc"
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
	sealed, err := devSess.Seal([]byte("temperature=70.5"))
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
