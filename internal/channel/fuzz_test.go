package channel

import (
	"bytes"
	"testing"

	"xlf/internal/lwc"
)

// FuzzOpen: arbitrary wire bytes must never panic the session parser, and
// nothing the fuzzer fabricates may pass authentication (the only accepted
// messages are the ones the peer sealed).
func FuzzOpen(f *testing.F) {
	reg := lwc.NewRegistry()
	info, _ := reg.Lookup("PRESENT")
	key := bytes.Repeat([]byte{9}, 10)
	sender, err := New(info, key)
	if err != nil {
		f.Fatal(err)
	}
	sealed, err := sender.Seal(nil, []byte("hello"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, 32))

	f.Fuzz(func(t *testing.T, msg []byte) {
		recv, err := New(info, key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := recv.Open(msg)
		if err != nil {
			return
		}
		// Only the seeded genuine message may open.
		if !bytes.Equal(msg, sealed) || !bytes.Equal(got, []byte("hello")) {
			t.Fatalf("forged message accepted: msg=%x got=%q", msg, got)
		}
	})
}

// FuzzSealAppend seals into a dst with a fuzzed prefix and spare
// capacity, on every cipher the channel accepts: the prefix must be
// untouched, the appended bytes must equal the reference framing at the
// same nonce, a dst with room must be reused in place, and the peer must
// open the message.
func FuzzSealAppend(f *testing.F) {
	var infos []lwc.Info
	for _, info := range lwc.NewRegistry().All() {
		if _, err := New(info, make([]byte, info.DefaultKeyBits()/8)); err == nil {
			infos = append(infos, info)
		}
	}
	f.Add(uint8(0), []byte{}, uint16(0), []byte("hello"))
	f.Add(uint8(1), []byte("prefix"), uint16(64), []byte{})
	f.Add(uint8(2), []byte{0xff}, uint16(7), bytes.Repeat([]byte{3}, 100))

	f.Fuzz(func(t *testing.T, alg uint8, prefix []byte, spare uint16, pt []byte) {
		info := infos[int(alg)%len(infos)]
		key := bytes.Repeat([]byte{alg}, info.DefaultKeyBits()/8)
		s, err := New(info, key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := info.New(key)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSeal(ref, 1, pt)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, len(prefix), len(prefix)+int(spare%512))
		copy(dst, prefix)
		for i := len(dst); i < cap(dst); i++ {
			dst[:cap(dst)][i] = byte(i) // spare capacity holds stale bytes
		}
		got, err := s.Seal(dst, pt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("prefix %x became %x", prefix, got[:len(prefix)])
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("appended %x, reference %x", got[len(prefix):], want)
		}
		if cap(dst) >= len(got) && &got[:1][0] != &dst[:1][0] {
			t.Fatal("Seal reallocated a dst with room for the message")
		}
		peer, err := New(info, key)
		if err != nil {
			t.Fatal(err)
		}
		opened, err := peer.Open(got[len(prefix):])
		if err != nil || !bytes.Equal(opened, pt) {
			t.Fatalf("Open = %x, %v; want %x", opened, err, pt)
		}
	})
}
