package netsim

import (
	"fmt"
)

// Gateway is the smart home gateway: it NATs LAN traffic to its WAN
// address, keeps the port-mapping table, and is where XLF's network-layer
// functions (shaping, monitoring, NAC) are deployed when the XLF Core runs
// at the edge (§IV-D).
type Gateway struct {
	lanAddr Addr
	wanAddr Addr

	// natOut maps (lanSrc, dstPort, dst) -> external port;
	// natIn maps external port -> lan address/port.
	natOut map[natKey]int
	natIn  map[int]natBinding
	next   int

	// Firewall rules: NAC policy hook (§IV-A3 constrained access). If
	// non-nil, outbound packets it rejects are dropped and counted.
	// SendOut returns a *BlockedError it returns unchanged, so a policy
	// can hand out prebuilt refusals, and wraps any other error in one.
	OutboundPolicy func(pkt *Packet) error

	// Shaper, when set, intercepts outbound post-NAT packets (traffic
	// shaping lives on the gateway). It receives the packet and a send
	// function to emit (possibly delayed/padded) traffic.
	Shaper func(pkt *Packet, send func(*Packet))

	// OnForward, when set, observes every accepted outbound packet with
	// its ORIGINAL (pre-NAT) addressing — the gateway-resident XLF
	// functions read device attribution here, since post-NAT taps only
	// see the gateway's own address.
	OnForward func(pkt *Packet)

	// shapeNet and shapeSend are the send function handed to Shaper,
	// built once for the network SendOut last saw rather than per packet.
	shapeNet  *Network
	shapeSend func(*Packet)
}

type natKey struct {
	lanSrc  Addr
	lanPort int
	dst     Addr
	dstPort int
}

type natBinding struct {
	lanAddr Addr
	lanPort int
}

var _ Node = (*Gateway)(nil)

// NewGateway creates a gateway with LAN and WAN faces.
func NewGateway(lan, wan Addr) *Gateway {
	return &Gateway{
		lanAddr: lan,
		wanAddr: wan,
		natOut:  make(map[natKey]int),
		natIn:   make(map[int]natBinding),
		next:    40000,
	}
}

// Addr implements Node with the gateway's LAN face. The WAN face is
// attached separately via WANNode.
func (g *Gateway) Addr() Addr { return g.lanAddr }

// Handle implements Node: the LAN face drops traffic addressed to the
// gateway itself. WAN-bound traffic goes through SendOut.
func (g *Gateway) Handle(*Network, *Packet) {}

// WANNode returns the Node for the gateway's WAN face, which receives
// inbound traffic and un-NATs it.
func (g *Gateway) WANNode() Node {
	return &FuncNode{Address: g.wanAddr, Fn: g.handleInbound}
}

func (g *Gateway) handleInbound(net *Network, pkt *Packet) {
	b, ok := g.natIn[pkt.DstPort]
	if !ok {
		return
	}
	in := net.NewPacket(*pkt)
	in.Dst = b.lanAddr
	in.DstPort = b.lanPort
	// The payload buffer, if the network owns one, moves on with the
	// packet instead of going back to the free list under it.
	in.ownsPayload, pkt.ownsPayload = pkt.ownsPayload, false
	net.Send(in)
}

// BlockedError is SendOut's refusal of a packet by the outbound policy.
// It wraps the policy's error and formats its message only when read:
// under a flood of denied packets most refusals are counted, not printed.
type BlockedError struct{ Err error }

func (e *BlockedError) Error() string { return "netsim: outbound blocked: " + e.Err.Error() }

// Unwrap returns the policy's error.
func (e *BlockedError) Unwrap() error { return e.Err }

// SendOut NATs a LAN packet to the WAN and transmits it, applying the
// outbound policy and the traffic shaper. Devices and the home router
// call this for WAN-bound traffic.
//
// SendOut takes ownership of pkt, as Send does, and releases it when it
// refuses it. OutboundPolicy and OnForward see it with its LAN source;
// SendOut then rewrites Src and SrcPort in place to the gateway's WAN
// address and external port and sends (or shapes) that same packet. The
// shaper owns the packet until it sends it. A refusal is always a
// *BlockedError: the policy's own when it returned one, else a fresh one
// wrapping the policy's error.
func (g *Gateway) SendOut(net *Network, pkt *Packet) error {
	if !pkt.Src.IsLAN() {
		err := fmt.Errorf("netsim: SendOut from non-LAN address %q", pkt.Src)
		net.release(pkt)
		return err
	}
	if g.OutboundPolicy != nil {
		if err := g.OutboundPolicy(pkt); err != nil {
			net.release(pkt)
			if _, ok := err.(*BlockedError); ok {
				return err
			}
			return &BlockedError{Err: err}
		}
	}
	key := natKey{lanSrc: pkt.Src, lanPort: pkt.SrcPort, dst: pkt.Dst, dstPort: pkt.DstPort}
	ext, ok := g.natOut[key]
	if !ok {
		g.next++
		ext = g.next
		g.natOut[key] = ext
		g.natIn[ext] = natBinding{lanAddr: pkt.Src, lanPort: pkt.SrcPort}
	}
	if g.OnForward != nil {
		g.OnForward(pkt)
	}
	pkt.Src, pkt.SrcPort = g.wanAddr, ext
	if g.Shaper != nil {
		if g.shapeNet != net {
			g.shapeNet, g.shapeSend = net, net.Send
		}
		g.Shaper(pkt, g.shapeSend)
		return nil
	}
	net.Send(pkt)
	return nil
}
