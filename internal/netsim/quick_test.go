package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"xlf/internal/sim"
)

// Property: with loss-free links, every sent packet to an attached node is
// delivered exactly once, and byte accounting matches.
func TestConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		k := sim.NewKernel(3)
		n := New(k)
		recv := &sink{addr: "lan:recv"}
		if err := n.Attach(&sink{addr: "lan:send"}, DefaultLAN()); err != nil {
			return false
		}
		if err := n.Attach(recv, DefaultLAN()); err != nil {
			return false
		}
		var want uint64
		count := len(sizes)
		if count > 300 {
			count = 300
		}
		for i := 0; i < count; i++ {
			sz := int(sizes[i])%1400 + 1
			want += uint64(sz)
			n.Send(&Packet{Src: "lan:send", Dst: "lan:recv", Size: sz})
		}
		k.Run(10 * time.Minute)
		delivered, dropped, bytes := n.Stats()
		return int(delivered) == count && dropped == 0 && bytes == want && len(recv.got) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
