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

// The flags byte that opens each encoded record.
const (
	recEncrypted = 1 << iota
	recDNSName
	recPayload
)

// recHeaderMax bounds a record's encoding without its payload bytes: the
// flags byte and at most nine varints.
const recHeaderMax = 1 + 9*binary.MaxVarintLen64

// Capture accumulates PacketRecords from a tap as a compact byte
// encoding. Each record is, in order: a flags byte (encrypted, has a DNS
// name, has a payload); the zigzag varint of Time minus the previous
// record's Time; uvarint indexes into the capture's string table for
// Src, Dst and Proto, then DNSName when flagged; the zigzag varints of
// SrcPort, DstPort and Size; and, when flagged, the payload's uvarint
// length and bytes. Every int64 round-trips, so nothing is truncated.
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
	// strs is the string table; index maps each string to its position
	// and is built at the first record.
	strs  []string
	index map[string]uint64
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
	if c.index == nil {
		c.index = make(map[string]uint64)
	}
	var flags byte
	var payload []byte
	if pkt.Encrypted {
		flags |= recEncrypted
	} else {
		if pkt.DNSName != "" {
			flags |= recDNSName
		}
		if c.IncludePayloads && len(pkt.Payload) > 0 {
			flags |= recPayload
			payload = pkt.Payload
		}
	}
	var buf [recHeaderMax]byte
	h := append(buf[:0], flags)
	h = binary.AppendVarint(h, int64(pkt.DeliveredAt-c.last))
	h = binary.AppendUvarint(h, c.intern(string(pkt.Src)))
	h = binary.AppendUvarint(h, c.intern(string(pkt.Dst)))
	h = binary.AppendUvarint(h, c.intern(pkt.Proto))
	if flags&recDNSName != 0 {
		h = binary.AppendUvarint(h, c.intern(pkt.DNSName))
	}
	h = binary.AppendVarint(h, int64(pkt.SrcPort))
	h = binary.AppendVarint(h, int64(pkt.DstPort))
	h = binary.AppendVarint(h, int64(pkt.Size))
	if flags&recPayload != 0 {
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

// intern returns s's index in the string table, adding it if new.
func (c *Capture) intern(s string) uint64 {
	i, ok := c.index[s]
	if !ok {
		i = uint64(len(c.strs))
		c.strs = append(c.strs, s)
		c.index[s] = i
	}
	return i
}

// Records decodes the captured packets in delivery order into a fresh
// slice. Each payload is a fresh copy; an empty one is nil.
func (c *Capture) Records() []PacketRecord {
	out := make([]PacketRecord, 0, c.n)
	var t time.Duration
	for _, b := range c.chunks {
		for len(b) > 0 {
			var rec PacketRecord
			flags := b[0]
			b = b[1:]
			t += time.Duration(readVarint(&b))
			rec.Time = t
			rec.Src = Addr(c.strs[readUvarint(&b)])
			rec.Dst = Addr(c.strs[readUvarint(&b)])
			rec.Proto = c.strs[readUvarint(&b)]
			rec.Encrypted = flags&recEncrypted != 0
			if flags&recDNSName != 0 {
				rec.DNSName = c.strs[readUvarint(&b)]
			}
			rec.SrcPort = int(readVarint(&b))
			rec.DstPort = int(readVarint(&b))
			rec.Size = int(readVarint(&b))
			if flags&recPayload != 0 {
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

// Len returns the number of captured packets.
func (c *Capture) Len() int { return c.n }
