package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"xlf/internal/netsim"
	"xlf/internal/obs"
)

// NACPolicy is XLF's constrained-access function (§IV-A3): each device may
// only reach its enrolled vendor endpoints; everything else is denied at
// the gateway. The Core maintains the policy and exposes it as a
// netsim.Gateway outbound hook.
type NACPolicy struct {
	mu sync.Mutex
	// allowed maps device LAN address -> permitted WAN destinations.
	allowed map[netsim.Addr]map[netsim.Addr]bool
	// alwaysAllow lists shared infrastructure (DNS, NTP).
	alwaysAllow map[netsim.Addr]bool
	// blocked devices lose all WAN access (containment).
	blocked map[netsim.Addr]bool

	// OnDeny, when set, observes every denial — the Core turns repeated
	// denials into constrained-access signals.
	OnDeny func(pkt *netsim.Packet)

	// Tracer, when set, receives a core-layer span per denial. Spans are
	// emitted outside the policy mutex and timestamped by the tracer's
	// bound simulation clock.
	Tracer *obs.Tracer

	denials uint64
}

// NewNACPolicy returns an empty deny-by-default policy.
func NewNACPolicy() *NACPolicy {
	return &NACPolicy{
		allowed:     make(map[netsim.Addr]map[netsim.Addr]bool),
		alwaysAllow: make(map[netsim.Addr]bool),
		blocked:     make(map[netsim.Addr]bool),
	}
}

// Allow permits a device->destination pair.
func (p *NACPolicy) Allow(device, dst netsim.Addr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.allowed[device]
	if m == nil {
		m = make(map[netsim.Addr]bool)
		p.allowed[device] = m
	}
	m[dst] = true
}

// AllowInfra whitelists shared infrastructure for all devices.
func (p *NACPolicy) AllowInfra(dst netsim.Addr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.alwaysAllow[dst] = true
}

// Block cuts a device off (containment).
func (p *NACPolicy) Block(device netsim.Addr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocked[device] = true
}

// Blocked reports whether the device is under containment.
func (p *NACPolicy) Blocked(device netsim.Addr) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blocked[device]
}

// Denials returns how many packets the policy refused.
func (p *NACPolicy) Denials() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.denials
}

// NACError is the gateway hook's refusal of one outbound packet. Its
// message is formatted only when read.
type NACError struct {
	Src, Dst netsim.Addr
	// Quarantined reports that Src is under containment; otherwise Dst
	// is not enrolled for Src.
	Quarantined bool
}

func (e *NACError) Error() string {
	if e.Quarantined {
		return "core: " + string(e.Src) + " is quarantined"
	}
	return "core: NAC denies " + string(e.Src) + " -> " + string(e.Dst)
}

// GatewayHook returns the function to install as Gateway.OutboundPolicy.
func (p *NACPolicy) GatewayHook() func(pkt *netsim.Packet) error {
	return func(pkt *netsim.Packet) error {
		p.mu.Lock()
		if p.blocked[pkt.Src] {
			p.denials++
			p.mu.Unlock()
			p.traceDeny(pkt, "quarantined")
			return &NACError{Src: pkt.Src, Dst: pkt.Dst, Quarantined: true}
		}
		if p.alwaysAllow[pkt.Dst] {
			p.mu.Unlock()
			return nil
		}
		if m, ok := p.allowed[pkt.Src]; ok && m[pkt.Dst] {
			p.mu.Unlock()
			return nil
		}
		p.denials++
		cb := p.OnDeny
		p.mu.Unlock()
		p.traceDeny(pkt, "unenrolled")
		if cb != nil {
			cb(pkt)
		}
		return &NACError{Src: pkt.Src, Dst: pkt.Dst}
	}
}

// traceDeny emits a nac-deny span when tracing is on. Called without the
// policy mutex held.
func (p *NACPolicy) traceDeny(pkt *netsim.Packet, cause string) {
	if p.Tracer == nil {
		return
	}
	p.Tracer.Emit(obs.LayerCore, "nac-deny",
		strings.TrimPrefix(string(pkt.Src), "lan:"), cause)
}

// Describe renders the policy for reports.
func (p *NACPolicy) Describe() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var b strings.Builder
	devs := make([]string, 0, len(p.allowed))
	for d := range p.allowed {
		devs = append(devs, string(d))
	}
	sort.Strings(devs)
	for _, d := range devs {
		dsts := make([]string, 0, len(p.allowed[netsim.Addr(d)]))
		for a := range p.allowed[netsim.Addr(d)] {
			dsts = append(dsts, string(a))
		}
		sort.Strings(dsts)
		status := ""
		if p.blocked[netsim.Addr(d)] {
			status = " [QUARANTINED]"
		}
		fmt.Fprintf(&b, "%s%s -> %s\n", d, status, strings.Join(dsts, ", "))
	}
	return b.String()
}
