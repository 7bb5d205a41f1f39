package core

import (
	"fmt"
	"strings"
)

// Deployment is where the XLF Core runs: on the home gateway, next to
// the devices it guards. Figure 4 and the "deploy" trace span name it.
const Deployment = "gateway"

// Component is one registered XLF function for the architecture figures.
type Component struct {
	Layer LayerName
	Name  string
	// CoreLinked marks functions that exchange data with the XLF Core
	// (every edge in Figure 4).
	CoreLinked bool
}

// RenderFigure1 prints the generic layered IoT architecture (paper
// Figure 1) from the component inventory.
func RenderFigure1() string {
	var b strings.Builder
	b.WriteString("Figure 1: generic layered architecture of IoT platforms\n\n")
	order := []LayerName{Service, Network, Device}
	titles := map[LayerName]string{
		Service: "Service layer   (cloud platforms, applications, data analytics)",
		Network: "Network layer   (gateway, protocols, transport)",
		Device:  "Device layer    (hardware/perception + resident software)",
	}
	for _, l := range order {
		fmt.Fprintf(&b, "+--------------------------------------------------------------+\n")
		fmt.Fprintf(&b, "| %-60s |\n", titles[l])
		var names []string
		for _, c := range StandardComponents() {
			if c.Layer == l {
				names = append(names, c.Name)
			}
		}
		if len(names) > 0 {
			fmt.Fprintf(&b, "|   %-58s |\n", strings.Join(names, " | "))
		}
		fmt.Fprintf(&b, "+--------------------------------------------------------------+\n")
	}
	return b.String()
}

// RenderFigure4 prints the XLF cross-layer design (paper Figure 4): the
// three layers' security functions around the XLF Core, with the Core
// links drawn.
func RenderFigure4() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: XLF cross-layer security design (core deployed at: %s)\n\n", Deployment)
	for _, l := range []LayerName{Device, Network, Service} {
		fmt.Fprintf(&b, "[%s layer]\n", l)
		for _, c := range StandardComponents() {
			if c.Layer != l {
				continue
			}
			link := " "
			if c.CoreLinked {
				link = "<===> XLF Core"
			}
			fmt.Fprintf(&b, "  %-34s %s\n", c.Name, link)
		}
		b.WriteString("\n")
	}
	b.WriteString("[XLF Core] aggregation + correlation + MKL / graph learning + delegation\n")
	return b.String()
}

// StandardComponents returns the Figure 4 function inventory as the paper
// draws it, listed in the figures' row order: by layer, then by name.
func StandardComponents() []Component {
	return []Component{
		{Layer: Device, Name: "Authentication (delegated SSO/MFA)", CoreLinked: true},
		{Layer: Device, Name: "Constrained access (NAC)", CoreLinked: true},
		{Layer: Device, Name: "Lightweight encryption", CoreLinked: true},
		{Layer: Device, Name: "Malware detection (firmware attestation)", CoreLinked: true},
		{Layer: Network, Name: "DNS privacy bridge", CoreLinked: true},
		{Layer: Network, Name: "Malicious activity identification", CoreLinked: true},
		{Layer: Network, Name: "Traffic monitoring (encrypted DPI)", CoreLinked: true},
		{Layer: Network, Name: "Traffic shaping", CoreLinked: true},
		{Layer: Service, Name: "Application verification", CoreLinked: true},
		{Layer: Service, Name: "Secure APIs (scoped tokens)", CoreLinked: true},
		{Layer: Service, Name: "Security data analytics", CoreLinked: true},
	}
}
