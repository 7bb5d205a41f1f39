package netsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// refRecord is the reference tap: the record an observer keeps for pkt,
// built the obvious way.
func refRecord(pkt *Packet, includePayloads bool) PacketRecord {
	rec := PacketRecord{
		Time: pkt.DeliveredAt, Src: pkt.Src, Dst: pkt.Dst,
		SrcPort: pkt.SrcPort, DstPort: pkt.DstPort,
		Proto: pkt.Proto, Size: pkt.Size, Encrypted: pkt.Encrypted,
	}
	if !pkt.Encrypted {
		rec.DNSName = pkt.DNSName
		if includePayloads {
			rec.Payload = append([]byte(nil), pkt.Payload...)
		}
	}
	return rec
}

// edgeInts are port, size and time values a uint16 or int32 field would
// truncate, plus the int64 extremes.
var edgeInts = []int{-1, 0, 65535, 65536, 1 << 20, math.MaxInt32 + 1, -math.MaxInt32 - 2, 1 << 40, math.MaxInt64, math.MinInt64}

// packetGen rewrites one packet in place, reusing its payload buffers, so
// a capture that kept the caller's bytes instead of a copy would diverge.
type packetGen struct {
	rng        *rand.Rand
	pkt        Packet
	small, big []byte
	now        time.Duration
}

func newPacketGen(seed int64) *packetGen {
	return &packetGen{
		rng:   rand.New(rand.NewSource(seed)),
		small: make([]byte, 64),
		big:   make([]byte, captureChunk+100),
	}
}

// edge returns normal most of the time and an edge value otherwise.
func (g *packetGen) edge(normal int) int {
	if g.rng.Intn(50) == 0 {
		return edgeInts[g.rng.Intn(len(edgeInts))]
	}
	return normal
}

// homeFlows are keepalive templates as a home's WAN tap sees them: the
// first two are two devices NATted to one source address that reach one
// destination from their own ports, so their packets alternate inside one
// flow; the rest repeat their own ports and size.
var homeFlows = []Packet{
	{Src: "wan:home", Dst: "wan:nest", SrcPort: 40001, DstPort: 443, Proto: "TLS", Size: 180, Encrypted: true},
	{Src: "wan:home", Dst: "wan:nest", SrcPort: 40002, DstPort: 443, Proto: "TLS", Size: 212, Encrypted: true},
	{Src: "wan:home", Dst: "wan:hue", SrcPort: 40003, DstPort: 8883, Proto: "MQTT", Size: 96, Encrypted: true},
	{Src: "wan:home", Dst: "wan:cloud", SrcPort: 40004, DstPort: 80, Proto: "HTTP", Size: 140},
	{Src: "wan:home", Dst: "wan:dns", SrcPort: 5353, DstPort: 53, Proto: "DNS", Size: 80, DNSName: "api.nest.example"},
	{Src: "lan:cam", Dst: "lan:hub", SrcPort: 6000, DstPort: 6000, Proto: "XLF-LWC", Size: 64, Encrypted: true},
}

// next rewrites the packet. Three in four are home-shaped: a homeFlows
// keepalive a few milliseconds and some nanoseconds after the last, one
// in ten with a changed size that the flow's next packet changes back.
// The rest draw fresh headers, with negative and out-of-order times,
// ports and sizes outside uint16/int32, and DNS names on encrypted
// packets. Any packet may get a nil, empty or larger-than-one-chunk
// payload.
func (g *packetGen) next() *Packet {
	rng, pkt := g.rng, &g.pkt
	if rng.Intn(4) != 0 {
		*pkt = homeFlows[rng.Intn(len(homeFlows))]
		if rng.Intn(10) == 0 {
			pkt.Size += 1 + rng.Intn(100)
		}
		g.now += time.Duration(1+rng.Intn(3))*time.Millisecond + time.Duration(rng.Intn(1_000_000))
		pkt.DeliveredAt = g.now
	} else {
		g.fresh()
	}
	switch r := rng.Intn(400); {
	case r == 0:
		pkt.Payload = nil
	case r == 1:
		pkt.Payload = g.small[:0]
	case r == 2:
		pkt.Payload = g.big[:captureChunk+rng.Intn(100)]
	default:
		pkt.Payload = g.small[:rng.Intn(len(g.small)+1)]
	}
	rng.Read(pkt.Payload)
	return pkt
}

// fresh rewrites the packet's header and time with new random values.
func (g *packetGen) fresh() {
	protos := []string{"DNS", "TLS", "HTTP", "MQTT", "XLF-LWC"}
	rng, pkt := g.rng, &g.pkt
	pkt.Src = Addr(fmt.Sprintf("lan:dev-%d", rng.Intn(8)))
	pkt.Dst = Addr(fmt.Sprintf("wan:svc-%d", rng.Intn(4)))
	pkt.SrcPort, pkt.DstPort = g.edge(1024+rng.Intn(60000)), g.edge(rng.Intn(1024))
	pkt.Proto = protos[rng.Intn(len(protos))]
	pkt.Size = g.edge(40 + rng.Intn(1400))
	pkt.Encrypted = rng.Intn(2) == 0
	pkt.DNSName = ""
	if pkt.Proto == "DNS" || rng.Intn(20) == 0 {
		pkt.DNSName = fmt.Sprintf("host-%d.example", rng.Intn(16))
	}
	g.now += time.Millisecond
	pkt.DeliveredAt = g.now
	switch rng.Intn(100) {
	case 0:
		pkt.DeliveredAt = -time.Duration(rng.Int63())
	case 1:
		pkt.DeliveredAt = g.now - time.Duration(rng.Intn(1000))*time.Millisecond
	case 2:
		pkt.DeliveredAt = time.Duration(edgeInts[rng.Intn(len(edgeInts))])
	}
}

// branches walks c's encoded records and counts those that repeat their
// flow's ports and size and those that spell them out.
func branches(c *Capture) (same, full int) {
	for _, b := range c.chunks {
		for len(b) > 0 {
			head := readUvarint(&b)
			readVarint(&b)
			if head&recSame != 0 {
				same++
			} else {
				full++
				readVarint(&b)
				readVarint(&b)
				readVarint(&b)
			}
			if head&recPayload != 0 {
				b = b[readUvarint(&b):]
			}
		}
	}
	return same, full
}

// checkCapture compares c with the reference records, and checks that a
// decoded payload does not alias the capture's bytes.
func checkCapture(t *testing.T, c *Capture, ref []PacketRecord) {
	t.Helper()
	got := c.Records()
	if len(got) != len(ref) {
		t.Fatalf("%d records, want %d", len(got), len(ref))
	}
	if len(ref) > 0 && !reflect.DeepEqual(got, ref) {
		for i := range got {
			if i < len(ref) && !reflect.DeepEqual(got[i], ref[i]) {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], ref[i])
			}
		}
		t.Fatalf("Records differ from the reference slice")
	}
	for i := range got {
		if len(got[i].Payload) > 0 {
			got[i].Payload[0]++
			if again := c.Records()[i].Payload; !bytes.Equal(again, ref[i].Payload) {
				t.Fatalf("record %d's payload aliases the capture", i)
			}
			return
		}
	}
}

// TestCaptureMatchesReferenceSlice feeds the same seeded packets to a
// Capture and to a plain slice of reference records, starting with
// payloads off or on and flipping IncludePayloads now and then, and
// compares Len and Records one record below, on and one above each point
// where a new chunk opens. A first pass finds those points; the second
// replays the same seed. At the end every chunk must still be where it
// was opened (never copied) and sized by the chunk rule, and at least a
// quarter of the records must take each of the repeat and spelled-out
// header branches.
func TestCaptureMatchesReferenceSlice(t *testing.T) {
	const n = 20_000
	for _, payloads := range []bool{false, true} {
		t.Run(fmt.Sprintf("payloads=%v", payloads), func(t *testing.T) {
			run := func(check func(sent int, c *Capture, ref []PacketRecord)) *Capture {
				g := newPacketGen(7)
				c := NewCapture()
				c.IncludePayloads = payloads
				tap := c.Tap()
				var ref []PacketRecord
				for sent := 1; sent <= n; sent++ {
					if g.rng.Intn(1000) == 0 {
						c.IncludePayloads = !c.IncludePayloads
					}
					pkt := g.next()
					tap(TapLAN, pkt)
					ref = append(ref, refRecord(pkt, c.IncludePayloads))
					check(sent, c, ref)
				}
				return c
			}
			checkpoints := map[int]bool{n: true}
			chunks := 0
			run(func(sent int, c *Capture, _ []PacketRecord) {
				if len(c.chunks) != chunks {
					chunks = len(c.chunks)
					checkpoints[sent-1], checkpoints[sent], checkpoints[sent+1] = true, true, true
				}
			})
			var opened []*byte
			c := run(func(sent int, c *Capture, ref []PacketRecord) {
				if len(c.chunks) != len(opened) {
					opened = append(opened, unsafe.SliceData(c.chunks[len(c.chunks)-1]))
				}
				if checkpoints[sent] {
					checkCapture(t, c, ref)
				}
			})
			var held, full, own int
			for i, ch := range c.chunks {
				if unsafe.SliceData(ch) != opened[i] {
					t.Errorf("chunk %d was copied", i)
				}
				switch want := min(max(held, captureFirstChunk), captureChunk); {
				case cap(ch) == captureChunk:
					full++
				case cap(ch) > want && len(ch) == cap(ch):
					own++ // one record longer than the doubling size
				case cap(ch) != want:
					t.Errorf("chunk %d holds %d of %d bytes after %d bytes, want capacity %d", i, len(ch), cap(ch), held, want)
				}
				held += len(ch)
			}
			if full < 2 || own < 2 {
				t.Errorf("%d chunks at the cap and %d of one record: the packets no longer reach every chunk case", full, own)
			}
			if same, spelled := branches(c); same < n/4 || spelled < n/4 {
				t.Errorf("%d records repeat their flow's ports and size and %d spell them out, want at least %d each", same, spelled, n/4)
			}
		})
	}
}

// FuzzCaptureRecords drives a Capture and the reference with packets
// decoded from the fuzzer's bytes, 37 bytes each: an op byte (bit 0
// encrypted, bit 1 flips IncludePayloads first, bits 2-3 pick a nil,
// empty, short or larger-than-one-chunk payload), four string-table
// picks (Src, Dst, Proto, DNSName), then DeliveredAt, SrcPort, DstPort
// and Size as big-endian int64s. A short payload's length is the next
// byte and its bytes follow. Records must equal the reference.
func FuzzCaptureRecords(f *testing.F) {
	enc := func(op byte, strs [4]byte, vals ...int64) []byte {
		b := append([]byte{op}, strs[:]...)
		for _, v := range vals {
			b = binary.BigEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(enc(0x01, [4]byte{1, 2, 4, 5}, 5, 443, 1024, 180))
	f.Add(append(enc(0x0a, [4]byte{1, 2, 3, 5}, -7, 70000, -1, math.MaxInt32+1), 3, 'a', 'b', 'c'))
	f.Add(append(append(enc(0x0e, [4]byte{0, 6, 3, 0}, math.MaxInt64, math.MinInt64, 1<<40, -5),
		enc(0x05, [4]byte{2, 1, 4, 5}, math.MinInt64, 65536, 65535, 1<<33)...),
		enc(0x02, [4]byte{1, 1, 3, 6}, 3, 0, 0, 0)...))
	f.Add(append(enc(0x06, [4]byte{1, 2, 3, 5}, 10, 53, 53, 90), 0))
	// A, A′, A on one flow: the header changes and changes back.
	f.Add(append(append(enc(0x01, [4]byte{1, 2, 4, 0}, 30e9+17, 40001, 443, 180),
		enc(0x01, [4]byte{1, 2, 4, 0}, 60e9+4, 40001, 443, 212)...),
		enc(0x01, [4]byte{1, 2, 4, 0}, 90e9+911, 40001, 443, 180)...))
	// Two sources alternating to one Dst, then one source alternating ports.
	f.Add(append(append(append(append(enc(0x01, [4]byte{1, 2, 4, 0}, 5, 40001, 443, 180),
		enc(0x01, [4]byte{5, 2, 4, 0}, 6, 40002, 443, 180)...),
		enc(0x01, [4]byte{1, 2, 4, 0}, 7, 40001, 443, 180)...),
		enc(0x01, [4]byte{5, 2, 4, 0}, 8, 40002, 443, 180)...),
		enc(0x01, [4]byte{5, 2, 4, 0}, 9, 40001, 443, 180)...))
	names := []string{"", "lan:cam", "wan:cloud", "DNS", "TLS", "host.example", string(bytes.Repeat([]byte("x"), 300))}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		take := func(k int) []byte {
			b := make([]byte, k)
			data = data[copy(b, data):]
			return b
		}
		int64At := func() int64 { return int64(binary.BigEndian.Uint64(take(8))) }
		c := NewCapture()
		tap := c.Tap()
		var ref []PacketRecord
		for len(data) > 0 {
			op, s := take(1)[0], take(4)
			pkt := &Packet{
				Src: Addr(names[int(s[0])%len(names)]), Dst: Addr(names[int(s[1])%len(names)]),
				Proto: names[int(s[2])%len(names)], DNSName: names[int(s[3])%len(names)],
				Encrypted: op&1 != 0,
			}
			pkt.DeliveredAt = time.Duration(int64At())
			pkt.SrcPort, pkt.DstPort, pkt.Size = int(int64At()), int(int64At()), int(int64At())
			switch op >> 2 & 3 {
			case 1:
				pkt.Payload = []byte{}
			case 2:
				pkt.Payload = take(int(take(1)[0]))
			case 3:
				pkt.Payload = bytes.Repeat([]byte{op}, captureChunk+int(s[0]))
			}
			if op&2 != 0 {
				c.IncludePayloads = !c.IncludePayloads
			}
			tap(TapWAN, pkt)
			ref = append(ref, refRecord(pkt, c.IncludePayloads))
			if len(pkt.Payload) > 0 {
				pkt.Payload[0]++ // the sender reuses its buffer
			}
		}
		checkCapture(t, c, ref)
	})
}

// TestCaptureAllocationBound bounds the bytes a capture allocates a
// record, chunk growth and flow table included, at nanosecond-jittered
// times about a second apart, where a PacketRecord alone is 128: a
// repeated TLS keepalive on one flow (the flow byte and a 5-byte time
// delta), one flow whose source port and size change every record (the
// flags-byte and string-index encoding this one replaced allocated 16.4
// bytes a record on the same packets), and a new destination every
// record, which pays for a flow-table entry each (177.5 before).
func TestCaptureAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 100_000
	dsts := make([]Addr, n)
	for i := range dsts {
		dsts[i] = Addr(fmt.Sprintf("wan:svc-%d", i))
	}
	for _, tc := range []struct {
		name      string
		perRecord float64
		vary      func(pkt *Packet, i int, rng *rand.Rand)
	}{
		{"one flow", 8, func(*Packet, int, *rand.Rand) {}},
		{"port churn", 15.1, func(pkt *Packet, _ int, rng *rand.Rand) {
			pkt.SrcPort, pkt.Size = 1024+rng.Intn(64512), 40+rng.Intn(1400)
		}},
		{"new destination", 600, func(pkt *Packet, i int, _ *rand.Rand) { pkt.Dst = dsts[i] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pkt := &Packet{Src: "wan:home", Dst: "wan:cloud", SrcPort: 40001, DstPort: 443, Proto: "TLS", Size: 180, Encrypted: true}
			rng := rand.New(rand.NewSource(1))
			c := NewCapture()
			tap := c.Tap()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				tc.vary(pkt, i, rng)
				pkt.DeliveredAt = time.Duration(i)*time.Second + time.Duration(rng.Intn(1_000_000))
				tap(TapWAN, pkt)
			}
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(c)
			got := float64(after.TotalAlloc-before.TotalAlloc) / n
			t.Logf("%.2f bytes a record", got)
			if got > tc.perRecord {
				t.Errorf("capturing %d packets allocated %.2f bytes a record, want at most %v", n, got, tc.perRecord)
			}
			if got := len(c.Records()); got != n {
				t.Errorf("%d records, want %d", got, n)
			}
		})
	}
}

// BenchmarkCaptureTap measures the steady-state cost of one record at a
// home-shaped WAN tap: twelve keepalive flows, two of which are devices
// behind one NAT address reaching one destination from their own ports,
// so they alternate inside one flow, at times 1.7 s and some nanoseconds
// apart (a home's WAN tap averages about one record every two seconds).
// B/op is the encoded bytes a record costs, chunk growth included.
func BenchmarkCaptureTap(b *testing.B) {
	protos := []string{"TLS", "DNS", "MQTT", "XLF-LWC"}
	pkts := make([]Packet, 12)
	for i := range pkts {
		pkts[i] = Packet{
			Src: "wan:home", Dst: Addr(fmt.Sprintf("wan:svc-%d", i)),
			SrcPort: 40000 + i, DstPort: 443, Proto: protos[i%len(protos)],
			Size: 60 + 17*i, Encrypted: i%4 != 1,
		}
		if pkts[i].Proto == "DNS" {
			pkts[i].DNSName = fmt.Sprintf("host-%d.example", i)
		}
	}
	pkts[2].Dst, pkts[2].Proto = pkts[0].Dst, pkts[0].Proto
	c := NewCapture()
	tap := c.Tap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := &pkts[i%len(pkts)]
		pkt.DeliveredAt = time.Duration(i)*1700*time.Millisecond + time.Duration(i*7919%1_000_000)
		tap(TapWAN, pkt)
	}
}
