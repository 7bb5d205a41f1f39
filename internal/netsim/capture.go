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

// captureChunk caps a capture chunk's length in records (512 KB of
// PacketRecords).
const captureChunk = 4096

// Capture accumulates PacketRecords from a tap. The records live in
// append-only chunks: the first holds 16 records and each new one is as
// long as the records held so far, up to captureChunk. A full chunk is
// never copied, so a capture allocates about one copy of what it holds
// plus at most one partly filled chunk, where one append-grown slice
// would allocate several.
type Capture struct {
	// chunks hold the records in delivery order; every chunk but the
	// last is full.
	chunks [][]PacketRecord
	n      int
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
		c.add(rec)
	}
}

// add appends rec, starting a new chunk when the last one is full.
func (c *Capture) add(rec PacketRecord) {
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last]) == cap(c.chunks[last]) {
		c.chunks = append(c.chunks, make([]PacketRecord, 0, min(max(c.n, 16), captureChunk)))
		last++
	}
	c.chunks[last] = append(c.chunks[last], rec)
	c.n++
}

// Records returns the captured packets in delivery order (a fresh slice;
// records are shared).
func (c *Capture) Records() []PacketRecord {
	out := make([]PacketRecord, 0, c.n)
	for _, ch := range c.chunks {
		out = append(out, ch...)
	}
	return out
}

// Len returns the number of captured packets.
func (c *Capture) Len() int { return c.n }
