package netsim

import (
	"encoding/binary"
	"time"
)

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

// Capture chunk sizes in bytes: the first chunk holds captureFirstChunk,
// each new one is as long as the bytes held so far, up to captureChunk.
const (
	captureFirstChunk = 256
	captureChunk      = 64 << 10
)

// flowKey is what the records of one flow share: every header field but
// the ports and size. DNSName is empty on encrypted packets, whose
// records never show it.
type flowKey struct {
	src, dst       Addr
	proto, dnsName string
	encrypted      bool
}

// flowLast is the ports and size of a flow's latest record.
type flowLast struct{ srcPort, dstPort, size int }

// The low bits of a record's leading uvarint; the flow index sits above
// them.
const (
	recPayload   = 1 << 0 // the payload's length and bytes follow
	recSame      = 1 << 1 // ports and size repeat the flow's last record
	recFlowShift = 2
)

// recHeaderMax bounds a record's encoding without its payload bytes: at
// most six varints.
const recHeaderMax = 6 * binary.MaxVarintLen64

// Capture accumulates PacketRecords from a tap as a compact byte
// encoding against a flow table. A flow is the (Src, Dst, Proto,
// Encrypted, cleartext DNSName) of a record, numbered in order of first
// appearance. Each record is, in order: the uvarint of its flow index
// shifted left two bits, with a bit for "same SrcPort, DstPort and Size
// as this flow's last record" and a bit for "has a payload"; the zigzag
// varint of Time minus the previous record's Time; the zigzag varints of
// SrcPort, DstPort and Size unless the same bit is set; and, when
// flagged, the payload's uvarint length and bytes. Every int64
// round-trips, so nothing is truncated. Ports are not part of a flow, so
// NAT port churn, a port scan or a flood from random source ports stays
// one flow and costs three varints a record instead of a table entry.
// A home's repeated WAN keepalive is about 7 bytes: one for the flow and
// bits, five or six for a nanosecond time delta.
//
// The records live in append-only byte chunks that are never copied:
// the first holds captureFirstChunk bytes and each new one is as long as
// the bytes held so far, up to captureChunk; a record longer than that
// gets a chunk of its own.
type Capture struct {
	// chunks hold the encoded records in delivery order; a record never
	// spans two chunks.
	chunks [][]byte
	held   int // encoded bytes in chunks
	n      int
	last   time.Duration // Time of the previous record
	// flowIndex numbers each flow and is made at the first record; flows
	// holds each flow's last ports and size, by index.
	flowIndex map[flowKey]int
	flows     []flowLast
	// IncludePayloads controls whether cleartext payloads are retained.
	IncludePayloads bool
}

// NewCapture returns an empty capture.
func NewCapture() *Capture { return &Capture{} }

// Tap returns the tap function to register with Network.AddTap.
func (c *Capture) Tap() Tap {
	return func(dir TapDirection, pkt *Packet) { c.add(pkt) }
}

// add encodes pkt's record and appends it to the last chunk, starting a
// new chunk when it does not fit.
func (c *Capture) add(pkt *Packet) {
	if c.flowIndex == nil {
		c.flowIndex = make(map[flowKey]int)
	}
	key := flowKey{src: pkt.Src, dst: pkt.Dst, proto: pkt.Proto, encrypted: pkt.Encrypted}
	var payload []byte
	if !pkt.Encrypted {
		key.dnsName = pkt.DNSName
		if c.IncludePayloads {
			payload = pkt.Payload
		}
	}
	cur := flowLast{pkt.SrcPort, pkt.DstPort, pkt.Size}
	var bits uint64
	i, ok := c.flowIndex[key]
	switch {
	case !ok:
		i = len(c.flows)
		c.flowIndex[key] = i
		c.flows = append(c.flows, cur)
	case c.flows[i] == cur:
		bits |= recSame
	default:
		c.flows[i] = cur
	}
	if len(payload) > 0 {
		bits |= recPayload
	}
	var buf [recHeaderMax]byte
	h := binary.AppendUvarint(buf[:0], uint64(i)<<recFlowShift|bits)
	h = binary.AppendVarint(h, int64(pkt.DeliveredAt-c.last))
	if bits&recSame == 0 {
		h = binary.AppendVarint(h, int64(cur.srcPort))
		h = binary.AppendVarint(h, int64(cur.dstPort))
		h = binary.AppendVarint(h, int64(cur.size))
	}
	if bits&recPayload != 0 {
		h = binary.AppendUvarint(h, uint64(len(payload)))
	}

	need := len(h) + len(payload)
	last := len(c.chunks) - 1
	if last < 0 || cap(c.chunks[last])-len(c.chunks[last]) < need {
		c.chunks = append(c.chunks, make([]byte, 0, max(need, min(max(c.held, captureFirstChunk), captureChunk))))
		last++
	}
	ch := append(c.chunks[last], h...)
	c.chunks[last] = append(ch, payload...)
	c.held += need
	c.last = pkt.DeliveredAt
	c.n++
}

// Records decodes the captured packets in delivery order into a fresh
// slice. Each payload is a fresh copy; an empty one is nil.
func (c *Capture) Records() []PacketRecord {
	out := make([]PacketRecord, 0, c.n)
	keys := make([]flowKey, len(c.flows))
	for k, i := range c.flowIndex {
		keys[i] = k
	}
	lasts := make([]flowLast, len(c.flows))
	var t time.Duration
	for _, b := range c.chunks {
		for len(b) > 0 {
			head := readUvarint(&b)
			i := head >> recFlowShift
			t += time.Duration(readVarint(&b))
			if head&recSame == 0 {
				lasts[i] = flowLast{int(readVarint(&b)), int(readVarint(&b)), int(readVarint(&b))}
			}
			k, l := keys[i], lasts[i]
			rec := PacketRecord{
				Time: t, Src: k.src, Dst: k.dst, Proto: k.proto,
				SrcPort: l.srcPort, DstPort: l.dstPort, Size: l.size,
				Encrypted: k.encrypted, DNSName: k.dnsName,
			}
			if head&recPayload != 0 {
				n := readUvarint(&b)
				rec.Payload = append([]byte(nil), b[:n]...)
				b = b[n:]
			}
			out = append(out, rec)
		}
	}
	return out
}

// readVarint and readUvarint decode one varint from the front of *b and
// advance it. The capture wrote every byte, so a malformed varint is a
// bug in add and panics.
func readVarint(b *[]byte) int64 {
	v, k := binary.Varint(*b)
	if k <= 0 {
		panic("netsim: corrupt capture record")
	}
	*b = (*b)[k:]
	return v
}

func readUvarint(b *[]byte) uint64 {
	v, k := binary.Uvarint(*b)
	if k <= 0 {
		panic("netsim: corrupt capture record")
	}
	*b = (*b)[k:]
	return v
}
