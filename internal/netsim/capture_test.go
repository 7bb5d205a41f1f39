package netsim

import (
	"fmt"
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

// randomPacket rewrites pkt in place, reusing its payload buffer, so a
// capture that kept the caller's bytes instead of a copy would diverge.
func randomPacket(rng *rand.Rand, pkt *Packet, i int) {
	protos := []string{"DNS", "TLS", "HTTP", "MQTT", "XLF-LWC"}
	pkt.Src = Addr(fmt.Sprintf("lan:dev-%d", rng.Intn(8)))
	pkt.Dst = Addr(fmt.Sprintf("wan:svc-%d", rng.Intn(4)))
	pkt.SrcPort, pkt.DstPort = 1024+rng.Intn(60000), rng.Intn(1024)
	pkt.Proto = protos[rng.Intn(len(protos))]
	pkt.Size = 40 + rng.Intn(1400)
	pkt.Encrypted = rng.Intn(2) == 0
	pkt.DNSName = ""
	if pkt.Proto == "DNS" {
		pkt.DNSName = fmt.Sprintf("host-%d.example", rng.Intn(16))
	}
	pkt.Payload = pkt.Payload[:rng.Intn(cap(pkt.Payload)+1)]
	rng.Read(pkt.Payload)
	pkt.DeliveredAt = time.Duration(i) * time.Millisecond
}

// TestCaptureMatchesReferenceSlice feeds the same seeded random packets to
// a chunked Capture and to a plain append slice, and compares Len and
// Records one below, on and one above each chunk boundary.
func TestCaptureMatchesReferenceSlice(t *testing.T) {
	var checkpoints []int
	for _, b := range []int{16, 32, 64, captureChunk, 2 * captureChunk, 3 * captureChunk} {
		checkpoints = append(checkpoints, b-1, b, b+1)
	}
	for _, payloads := range []bool{false, true} {
		t.Run(fmt.Sprintf("payloads=%v", payloads), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			c := NewCapture()
			c.IncludePayloads = payloads
			tap := c.Tap()
			var ref []PacketRecord
			pkt := &Packet{Payload: make([]byte, 0, 64)}
			sent := 0
			for _, n := range checkpoints {
				for ; sent < n; sent++ {
					randomPacket(rng, pkt, sent)
					tap(TapLAN, pkt)
					ref = append(ref, refRecord(pkt, payloads))
				}
				if c.Len() != len(ref) {
					t.Fatalf("after %d packets Len = %d, want %d", n, c.Len(), len(ref))
				}
				if got := c.Records(); !reflect.DeepEqual(got, ref) {
					t.Fatalf("after %d packets Records differ from the reference slice", n)
				}
			}
		})
	}
}

// TestCaptureAllocationBound: a capture allocates about one copy of the
// records it holds. One append-grown slice would allocate several.
func TestCaptureAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 100_000
	pkt := &Packet{Src: "lan:cam", Dst: "wan:cloud", Proto: "TLS", Size: 180, Encrypted: true}
	c := NewCapture()
	tap := c.Tap()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		tap(TapWAN, pkt)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(1.25 * n * float64(unsafe.Sizeof(PacketRecord{})))
	if got > limit {
		t.Errorf("capturing %d packets allocated %d bytes, want at most %d", n, got, limit)
	}
	if c.Len() != n {
		t.Errorf("Len = %d, want %d", c.Len(), n)
	}
}
