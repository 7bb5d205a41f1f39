// Package proto is the protocol registry behind Figure 2 of the XLF paper:
// the IoT networking protocols mapped onto the TCP/IP stack, each annotated
// with the security capabilities XLF's network layer reasons about
// (encryption, integrity, replay protection, authentication).
//
// The registry is consumed three ways: the Figure 2 reproduction renders
// it; the netsim links attach a Protocol to every interface so packet
// metadata carries protocol context; and the XLF Core's policy engine uses
// the capability flags to decide, e.g., that a cleartext UPnP channel must
// not carry credentials.
package proto

import (
	"fmt"
	"sort"
	"strings"
)

// Layer is a TCP/IP stack layer as drawn in Figure 2.
type Layer int

// TCP/IP layers, bottom-up.
const (
	LayerPhysical Layer = iota + 1 // PHY / link technologies
	LayerNetwork                   // internet layer (and adaptation)
	LayerTransport
	LayerApplication
)

// String returns the layer name used in Figure 2.
func (l Layer) String() string {
	switch l {
	case LayerPhysical:
		return "Physical/Link"
	case LayerNetwork:
		return "Network"
	case LayerTransport:
		return "Transport"
	case LayerApplication:
		return "Application"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// Capabilities flags the security properties a protocol provides, per the
// paper's §II-B discussion (encryption, integrity, replay protection,
// authentication, access control).
type Capabilities struct {
	Encryption       bool
	Integrity        bool
	ReplayProtection bool
	Authentication   bool
	AccessControl    bool
}

func (c Capabilities) String() string {
	var parts []string
	add := func(ok bool, s string) {
		if ok {
			parts = append(parts, s)
		}
	}
	add(c.Encryption, "enc")
	add(c.Integrity, "int")
	add(c.ReplayProtection, "replay")
	add(c.Authentication, "auth")
	add(c.AccessControl, "acl")
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Protocol is one box in Figure 2.
type Protocol struct {
	Name  string
	Layer Layer
	// Medium names the radio/wire family for link-layer protocols
	// ("802.15.4", "WiFi", ...); empty for upper layers.
	Medium string
	// Caps are the security capabilities the protocol itself provides.
	Caps Capabilities
	// MaxPayload is the usable payload in bytes (0 = effectively
	// unconstrained at this layer).
	MaxPayload int
	// Notes carries the caveat the paper attaches ("cleartext", "optional
	// security model", ...).
	Notes string
}

// Registry holds Figure 2's protocol set. The zero value is empty; use
// NewRegistry for the paper's figure.
type Registry struct {
	byName map[string]Protocol
	order  []string
}

// NewRegistry returns the Figure 2 protocol map. An error here means the
// compiled-in figure2 table is itself malformed (duplicate or unnamed
// protocol, out-of-range layer).
func NewRegistry() (*Registry, error) {
	r := &Registry{byName: make(map[string]Protocol)}
	for _, p := range figure2() {
		if err := r.Add(p); err != nil {
			return nil, fmt.Errorf("proto: figure 2 table: %w", err)
		}
	}
	return r, nil
}

// MustRegistry is NewRegistry for static-table contexts (experiment
// harnesses, tests) where a malformed compiled-in table is a programming
// error: it panics instead of returning an error.
func MustRegistry() *Registry {
	r, err := NewRegistry()
	if err != nil {
		panic(err)
	}
	return r
}

// Add registers a protocol; duplicate names are rejected.
func (r *Registry) Add(p Protocol) error {
	if p.Name == "" {
		return fmt.Errorf("proto: empty protocol name")
	}
	if _, dup := r.byName[p.Name]; dup {
		return fmt.Errorf("proto: duplicate protocol %q", p.Name)
	}
	if p.Layer < LayerPhysical || p.Layer > LayerApplication {
		return fmt.Errorf("proto: %s: invalid layer %d", p.Name, p.Layer)
	}
	r.byName[p.Name] = p
	r.order = append(r.order, p.Name)
	return nil
}

// All returns every protocol in registration order (a copy).
func (r *Registry) All() []Protocol {
	out := make([]Protocol, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.byName[n])
	}
	return out
}

// AtLayer returns the protocols of one stack layer, sorted by name.
func (r *Registry) AtLayer(l Layer) []Protocol {
	var out []Protocol
	for _, p := range r.byName {
		if p.Layer == l {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RenderFigure2 prints the stack bottom-up with one line per protocol —
// the textual regeneration of the paper's Figure 2.
func (r *Registry) RenderFigure2() string {
	var b strings.Builder
	b.WriteString("Figure 2: IoT network protocols mapped to the TCP/IP stack\n")
	for _, l := range []Layer{LayerApplication, LayerTransport, LayerNetwork, LayerPhysical} {
		fmt.Fprintf(&b, "\n[%s]\n", l)
		for _, p := range r.AtLayer(l) {
			fmt.Fprintf(&b, "  %-14s caps=%-24s %s\n", p.Name, p.Caps, p.Notes)
		}
	}
	return b.String()
}

// figure2 enumerates the protocols the paper's Figure 2 places on the
// stack.
func figure2() []Protocol {
	return []Protocol{
		// Physical / link.
		{Name: "IEEE 802.15.4", Layer: LayerPhysical, Medium: "802.15.4", MaxPayload: 127,
			Caps:  Capabilities{Encryption: true, Integrity: true, ReplayProtection: true, AccessControl: true},
			Notes: "security model: AES-CCM*, ACLs, replay counters"},
		{Name: "ZigBee", Layer: LayerPhysical, Medium: "802.15.4", MaxPayload: 100,
			Caps:  Capabilities{Encryption: true, Integrity: true, ReplayProtection: true, Authentication: true, AccessControl: true},
			Notes: "802.15.4-based mesh; Touchlink commissioning is a known weak point"},
		{Name: "Z-Wave", Layer: LayerPhysical, Medium: "subGHz", MaxPayload: 64,
			Caps:  Capabilities{Encryption: true, Integrity: true, Authentication: true},
			Notes: "S0/S2 security classes; legacy S0 key exchange is weak"},
		{Name: "BLE", Layer: LayerPhysical, Medium: "2.4GHz", MaxPayload: 251,
			Caps:  Capabilities{Encryption: true, Integrity: true, Authentication: true},
			Notes: "pairing modes vary; JustWorks lacks MitM protection"},
		{Name: "WiFi", Layer: LayerPhysical, Medium: "802.11", MaxPayload: 2304,
			Caps:  Capabilities{Encryption: true, Integrity: true, Authentication: true, AccessControl: true},
			Notes: "WPA2-PSK typical in homes; open networks still common"},
		{Name: "Ethernet", Layer: LayerPhysical, Medium: "wired", MaxPayload: 1500,
			Caps:  Capabilities{},
			Notes: "no link security; relies on upper layers"},
		// Network / adaptation.
		{Name: "6LoWPAN", Layer: LayerNetwork, MaxPayload: 1280,
			Caps:  Capabilities{},
			Notes: "IPv6 adaptation for 802.15.4; inherits link security only"},
		{Name: "IPv4", Layer: LayerNetwork, Caps: Capabilities{}, Notes: "cleartext"},
		{Name: "IPv6", Layer: LayerNetwork, Caps: Capabilities{}, Notes: "cleartext; IPsec optional"},
		{Name: "RPL", Layer: LayerNetwork,
			Caps:  Capabilities{Integrity: true},
			Notes: "routing for low-power lossy networks; secure mode rarely deployed"},
		// Transport.
		{Name: "TCP", Layer: LayerTransport, Caps: Capabilities{}, Notes: "cleartext"},
		{Name: "UDP", Layer: LayerTransport, Caps: Capabilities{}, Notes: "cleartext; amplification risk"},
		{Name: "TLS", Layer: LayerTransport,
			Caps:  Capabilities{Encryption: true, Integrity: true, ReplayProtection: true, Authentication: true},
			Notes: "end-to-end security over TCP"},
		{Name: "DTLS", Layer: LayerTransport,
			Caps:  Capabilities{Encryption: true, Integrity: true, ReplayProtection: true, Authentication: true},
			Notes: "TLS for datagrams; CoAP's security binding"},
		// Application.
		{Name: "HTTP", Layer: LayerApplication, Caps: Capabilities{}, Notes: "cleartext REST"},
		{Name: "HTTPS", Layer: LayerApplication,
			Caps:  Capabilities{Encryption: true, Integrity: true, ReplayProtection: true, Authentication: true},
			Notes: "HTTP over TLS"},
		{Name: "CoAP", Layer: LayerApplication, MaxPayload: 1024,
			Caps:  Capabilities{},
			Notes: "constrained REST; security delegated to DTLS"},
		{Name: "MQTT", Layer: LayerApplication,
			Caps:  Capabilities{Authentication: true},
			Notes: "broker auth only unless run over TLS"},
		{Name: "DNS", Layer: LayerApplication, Caps: Capabilities{},
			Notes: "cleartext queries leak device identity (Apthorpe et al.)"},
		{Name: "UPnP", Layer: LayerApplication, Caps: Capabilities{},
			Notes: "unauthenticated port mapping; classic IoT exposure"},
		{Name: "NTP", Layer: LayerApplication, Caps: Capabilities{}, Notes: "cleartext time"},
	}
}
