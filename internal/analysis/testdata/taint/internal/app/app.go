// Package app seeds one violation (and one clean counterpart) for every
// flow shape the taint engine must handle: direct, sanitized, through a
// helper (interprocedural summary in both directions), via a struct
// field write, and waived.
package app

import (
	"fmt"

	"example.com/m/internal/channel"
	"example.com/m/internal/device"
	"example.com/m/internal/metrics"
	"example.com/m/internal/netsim"
	"example.com/m/internal/xauth"
)

// LeakDirect sends an unencrypted device payload straight to the
// network layer.
func LeakDirect(n *netsim.Network) {
	p := device.NewPayload("bulb-1", "keepalive", "")
	n.Send(&netsim.Packet{Payload: p}) // want "plaintextescape.* reaches sink .*Send"
}

// SealedOK is the sanctioned path: the payload passes through Seal.
func SealedOK(n *netsim.Network, s *channel.Session) {
	p := device.NewPayload("bulb-1", "keepalive", "")
	ct, err := s.Seal(nil, p)
	if err != nil {
		return
	}
	n.Send(&netsim.Packet{Payload: ct})
}

// emit forwards bytes to a send sink; its summary records that the
// parameter reaches the sink.
func emit(n *netsim.Network, b []byte) {
	n.Send(&netsim.Packet{Payload: b})
}

// LeakViaHelper reaches the sink one call deep.
func LeakViaHelper(n *netsim.Network) {
	emit(n, device.NewPayload("cam-1", "event", "motion")) // want "plaintextescape.* reaches sink .*Send via .*emit"
}

// build wraps the payload constructor; its summary records that the
// result carries source taint.
func build(id string) []byte {
	return device.NewPayload(id, "keepalive", "")
}

// LeakViaConstructorHelper gets its taint one call away from the source.
func LeakViaConstructorHelper(g *netsim.Gateway, n *netsim.Network) {
	pkt := &netsim.Packet{}
	pkt.Payload = build("oven-1")
	g.SendOut(n, pkt) // want "plaintextescape.* reaches sink .*SendOut"
}

// Waived documents a reviewed exception.
func Waived(n *netsim.Network) {
	p := device.NewPayload("dbg-1", "debug", "")
	n.Send(&netsim.Packet{Payload: p}) //xlf:allow-taint fixture: reviewed debug tap
}

// BadError wraps raw token material into an error value.
func BadError(s *xauth.Signer) error {
	t := s.Issue("alice")
	return fmt.Errorf("rejected token %v", t) // want "secretleak.* reaches sink fmt.Errorf"
}

// GoodError logs the redacted form.
func GoodError(s *xauth.Signer) error {
	t := s.Issue("alice")
	return fmt.Errorf("rejected %s", xauth.Redact(t))
}

// BadLabel writes an encoded token into a metrics row: Encode is no
// source, so the taint reaches the sink through Encode's summary.
func BadLabel(tb *metrics.Table, s *xauth.Signer) {
	tb.AddRow("user", xauth.Encode(s.Issue("bob"))) // want "secretleak.* reaches sink .*AddRow"
}

// WaivedDump documents a reviewed token dump.
func WaivedDump(s *xauth.Signer) {
	fmt.Println(s.Issue("carol")) //xlf:allow-taint fixture: test-vector dump
}
