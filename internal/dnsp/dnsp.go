// Package dnsp implements XLF's DNS privacy bridge (§IV-A3). Existing DNS
// privacy transports (DoT/DoH) assume conventional-device crypto budgets,
// while constrained devices can only afford lightweight primitives — and
// the global DNS cannot be forklift-upgraded to lightweight ciphers. The
// paper's proposal: the device speaks lightweight-encrypted DNS to the XLF
// Core on the gateway, and the Core bridges to standard encrypted DNS
// (DoT) upstream. The lightweight leg is the device's §IV-A2 channel
// (channel.Session, one per direction); this package provides the device
// stub and the gateway bridge node.
package dnsp

import (
	"errors"

	"xlf/internal/channel"
	"xlf/internal/netsim"
)

// Bridge is the gateway-resident XLF Core component: it terminates
// lightweight-encrypted DNS from devices and re-issues queries upstream
// over DoT via the gateway resolver.
type Bridge struct {
	Address Addr
	// up opens device queries; down seals the replies.
	up, down *channel.Session
	resolver *netsim.Resolver
}

// Addr aliases netsim.Addr for the public constructor signature.
type Addr = netsim.Addr

var _ netsim.Node = (*Bridge)(nil)

// NewBridge creates the bridge node in front of a DoT resolver. up is the
// device→bridge session and down the bridge→device one.
func NewBridge(addr Addr, up, down *channel.Session, resolver *netsim.Resolver) *Bridge {
	return &Bridge{Address: addr, up: up, down: down, resolver: resolver}
}

// NetAddr implements netsim.Node.
func (b *Bridge) Addr() netsim.Addr { return b.Address }

// Handle implements netsim.Node: decrypt, resolve upstream via DoT, reply
// encrypted. A query that fails its tag or replays an earlier nonce gets
// no reply.
func (b *Bridge) Handle(net *netsim.Network, pkt *netsim.Packet) {
	if pkt.Proto != "XLF-DNS" {
		return
	}
	name, err := b.up.Open(pkt.Payload)
	if err != nil {
		return
	}
	src, srcPort := pkt.Src, pkt.SrcPort
	b.resolver.Lookup(net, string(name), func(addr netsim.Addr, lerr error) {
		resp := "ERR"
		if lerr == nil {
			resp = string(addr)
		}
		sealed, serr := b.down.Seal(nil, []byte(resp))
		if serr != nil {
			return
		}
		net.Send(&netsim.Packet{
			Src: b.Address, Dst: src, SrcPort: 8853, DstPort: srcPort,
			Proto: "XLF-DNS", Size: 40 + len(sealed), Encrypted: true,
			Payload: sealed, App: "xlf-dns-response",
		})
	})
}

// Stub is the device-side lightweight DNS client.
type Stub struct {
	Device netsim.Addr
	Bridge netsim.Addr
	// up seals queries; down opens the bridge's replies.
	up, down *channel.Session

	pending map[int]func(netsim.Addr, error)
	nextID  int
}

// NewStub creates a device stub over the same two sessions as the bridge
// (up: device→bridge, down: bridge→device).
func NewStub(device, bridge netsim.Addr, up, down *channel.Session) *Stub {
	return &Stub{Device: device, Bridge: bridge, up: up, down: down, pending: make(map[int]func(netsim.Addr, error)), nextID: 30000}
}

// Query seals and sends a lookup; the callback fires when HandleResponse
// sees the reply.
func (s *Stub) Query(net *netsim.Network, name string, cb func(netsim.Addr, error)) error {
	sealed, err := s.up.Seal(nil, []byte(name))
	if err != nil {
		return err
	}
	s.nextID++
	port := s.nextID
	s.pending[port] = cb
	net.Send(&netsim.Packet{
		Src: s.Device, Dst: s.Bridge, SrcPort: port, DstPort: 8853,
		Proto: "XLF-DNS", Size: 40 + len(sealed), Encrypted: true,
		Payload: sealed, App: "xlf-dns-query",
	})
	return nil
}

// HandleResponse processes a bridge reply delivered to the device; wire it
// from the device's packet handler.
func (s *Stub) HandleResponse(pkt *netsim.Packet) {
	if pkt.Proto != "XLF-DNS" {
		return
	}
	cb, ok := s.pending[pkt.DstPort]
	if !ok {
		return
	}
	// A reply that fails its length, tag or replay check leaves the
	// session unchanged and is dropped: the query stays pending. Only
	// the device running out of energy ends it with an error.
	resp, err := s.down.Open(pkt.Payload)
	if err != nil && !errors.Is(err, channel.ErrOutOfEnergy) {
		return
	}
	delete(s.pending, pkt.DstPort)
	if err != nil {
		cb("", err)
		return
	}
	if string(resp) == "ERR" {
		cb("", errors.New("dnsp: upstream resolution failed"))
		return
	}
	cb(netsim.Addr(resp), nil)
}
