package netsim

import "time"

// PacketRecord is what an observer at a tap point legitimately sees: the
// metadata of one packet. Note there is no App/Dummy field — a passive
// adversary (or XLF's own monitors) must infer semantics from metadata, as
// in Apthorpe et al. and HoMonit.
type PacketRecord struct {
	Time     time.Duration
	Src, Dst Addr
	SrcPort  int
	DstPort  int
	Proto    string
	Size     int
	// Encrypted tells the observer it cannot read the payload.
	Encrypted bool
	// DNSName is visible only on cleartext DNS.
	DNSName string
	// Payload is included only for cleartext packets.
	Payload []byte
}

// Capture accumulates PacketRecords from a tap.
type Capture struct {
	records []PacketRecord
	// IncludePayloads controls whether cleartext payloads are retained.
	IncludePayloads bool
}

// NewCapture returns an empty capture.
func NewCapture() *Capture { return &Capture{} }

// Tap returns the tap function to register with Network.AddTap.
func (c *Capture) Tap() Tap {
	return func(dir TapDirection, pkt *Packet) {
		rec := PacketRecord{
			Time:      pkt.DeliveredAt,
			Src:       pkt.Src,
			Dst:       pkt.Dst,
			SrcPort:   pkt.SrcPort,
			DstPort:   pkt.DstPort,
			Proto:     pkt.Proto,
			Size:      pkt.Size,
			Encrypted: pkt.Encrypted,
		}
		if !pkt.Encrypted {
			rec.DNSName = pkt.DNSName
			if c.IncludePayloads {
				rec.Payload = append([]byte(nil), pkt.Payload...)
			}
		}
		c.records = append(c.records, rec)
	}
}

// Records returns the captured packets in delivery order (a copy of the
// slice; records are shared).
func (c *Capture) Records() []PacketRecord {
	out := make([]PacketRecord, len(c.records))
	copy(out, c.records)
	return out
}

// Len returns the number of captured packets.
func (c *Capture) Len() int { return len(c.records) }

// Reset discards captured packets.
func (c *Capture) Reset() { c.records = c.records[:0] }
