package proto

import (
	"strings"
	"testing"
)

func TestNewRegistryError(t *testing.T) {
	r, err := NewRegistry()
	if err != nil {
		t.Fatalf("NewRegistry() on the compiled-in table: %v", err)
	}
	if r == nil {
		t.Fatal("NewRegistry() returned nil registry without error")
	}
}

func TestRegistryPopulated(t *testing.T) {
	r := MustRegistry()
	if got := len(r.All()); got < 20 {
		t.Fatalf("registry has %d protocols, want >= 20", got)
	}
	for _, name := range []string{"ZigBee", "Z-Wave", "6LoWPAN", "TLS", "DTLS", "UPnP", "DNS", "IEEE 802.15.4"} {
		if _, ok := r.byName[name]; !ok {
			t.Errorf("missing protocol %q from Figure 2", name)
		}
	}
}

func TestEveryLayerRepresented(t *testing.T) {
	r := MustRegistry()
	for _, l := range []Layer{LayerPhysical, LayerNetwork, LayerTransport, LayerApplication} {
		if len(r.AtLayer(l)) == 0 {
			t.Errorf("layer %s has no protocols", l)
		}
	}
}

func TestAddValidation(t *testing.T) {
	r := MustRegistry()
	if err := r.Add(Protocol{Name: "", Layer: LayerNetwork}); err == nil {
		t.Error("Add accepted empty name")
	}
	if err := r.Add(Protocol{Name: "TLS", Layer: LayerTransport}); err == nil {
		t.Error("Add accepted duplicate name")
	}
	if err := r.Add(Protocol{Name: "Bogus", Layer: Layer(9)}); err == nil {
		t.Error("Add accepted invalid layer")
	}
	if err := r.Add(Protocol{Name: "LoRaWAN", Layer: LayerPhysical}); err != nil {
		t.Errorf("Add valid protocol: %v", err)
	}
	if _, ok := r.byName["LoRaWAN"]; !ok {
		t.Error("added protocol not found")
	}
}

func TestCapabilitiesScoreAndString(t *testing.T) {
	all := Capabilities{Encryption: true, Integrity: true, ReplayProtection: true, Authentication: true, AccessControl: true}
	if got := all.String(); got != "enc+int+replay+auth+acl" {
		t.Errorf("full caps = %q, want all five", got)
	}
	var none Capabilities
	if none.String() != "none" {
		t.Errorf("empty caps = %q", none.String())
	}
	tls := MustRegistry().byName["TLS"]
	if !strings.Contains(tls.Caps.String(), "enc") {
		t.Errorf("TLS caps string %q missing enc", tls.Caps.String())
	}
}

func TestSecureChannelsOutscoreCleartext(t *testing.T) {
	r := MustRegistry()
	tls, http, upnp := r.byName["TLS"], r.byName["HTTP"], r.byName["UPnP"]
	if !tls.Caps.Encryption || !tls.Caps.Integrity || http.Caps.Encryption || http.Caps.Integrity {
		t.Errorf("TLS caps %v do not outrank HTTP's %v", tls.Caps, http.Caps)
	}
	if upnp.Caps != (Capabilities{}) {
		t.Errorf("UPnP caps = %v, want none (the paper's open-port example)", upnp.Caps)
	}
}

func TestRenderFigure2(t *testing.T) {
	out := MustRegistry().RenderFigure2()
	for _, want := range []string{"Figure 2", "Application", "Transport", "Network", "Physical/Link", "ZigBee", "DTLS"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestLayerString(t *testing.T) {
	if Layer(42).String() != "Layer(42)" {
		t.Errorf("unknown layer string = %q", Layer(42).String())
	}
}
