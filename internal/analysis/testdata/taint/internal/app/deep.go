package app

import (
	"example.com/m/internal/device"
	"example.com/m/internal/netsim"
)

// LeakDeep reaches the payload constructor twelve calls down: with
// callers sorted before callees, each summary round resolves one more
// level of the chain, so no fixed round count is enough.
func LeakDeep(n *netsim.Network) {
	n.Send(&netsim.Packet{Payload: d01()}) // want "plaintextescape.* reaches sink .*Send"
}

func d01() []byte { return d02() }

func d02() []byte { return d03() }

func d03() []byte { return d04() }

func d04() []byte { return d05() }

func d05() []byte { return d06() }

func d06() []byte { return d07() }

func d07() []byte { return d08() }

func d08() []byte { return d09() }

func d09() []byte { return d10() }

func d10() []byte { return d11() }

func d11() []byte { return d12() }

func d12() []byte { return device.NewPayload("deep-1", "event", "") }

// LeakLoopCarried threads the payload back through nine assignments
// written in reverse order: each pass over the body moves it one step
// closer to the send at the top of the next iteration.
func LeakLoopCarried(n *netsim.Network, rounds int) {
	var p, a, b, c, d, e, f, g, h []byte
	for i := 0; i < rounds; i++ {
		n.Send(&netsim.Packet{Payload: p}) // want "plaintextescape.* reaches sink .*Send"
		p = a
		a = b
		b = c
		c = d
		d = e
		e = f
		f = g
		g = h
		h = device.NewPayload("loop-1", "event", "")
	}
}

// cycleFlag keeps cycC's recursive branch opaque.
var cycleFlag bool

// SendCycle sends what a three-function cycle returns. None of cycA,
// cycB, cycC introduces taint (cycD drops its argument), and summary
// iteration over the cycle must still terminate.
func SendCycle(n *netsim.Network) {
	n.Send(&netsim.Packet{Payload: cycA()})
}

func cycA() []byte { return cycB() }

func cycB() []byte { return cycC() }

func cycC() []byte {
	if cycleFlag {
		return cycA()
	}
	return cycD(device.NewPayload("cycle-1", "event", ""))
}

func cycD(p []byte) []byte { return nil }

// RelayScrubbed passes a payload to relay, whose only send carries
// scrub's result. scrub sorts after relay and drops its argument, so the
// payload never reaches the sink.
func RelayScrubbed(n *netsim.Network) {
	relay(n, device.NewPayload("relay-1", "event", ""))
}

func relay(n *netsim.Network, p []byte) {
	q := scrub(p)
	n.Send(&netsim.Packet{Payload: q})
}

func scrub(p []byte) []byte { return nil }

// SendRotating leaks through a cycle whose members each reach a sink
// first through the next member and then directly, alternating Send and
// Broadcast. The sink each parameter names must settle, not rotate.
func SendRotating(n *netsim.Network) {
	rotA(n, &netsim.Packet{Payload: device.NewPayload("rot-1", "event", "")}) // want "plaintextescape.* reaches sink .*(Send|Broadcast) via .*rotA"
}

func rotA(n *netsim.Network, p *netsim.Packet) {
	rotB(n, p)
	n.Send(p)
}

func rotB(n *netsim.Network, p *netsim.Packet) {
	rotC(n, p)
	n.Broadcast(p)
}

func rotC(n *netsim.Network, p *netsim.Packet) {
	rotA(n, p)
	n.Send(p)
}
