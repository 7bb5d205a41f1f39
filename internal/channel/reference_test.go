package channel

import (
	"bytes"
	"crypto/cipher"
	"encoding/binary"
	"math/rand"
	"testing"

	"xlf/internal/lwc"
)

// refCTRXOR and refTag are the session's CTR keystream and CMAC tag as
// they stood before the session kept one CMAC and scratch blocks of its
// own (a fresh CMAC and fresh buffers per call), kept verbatim as the
// reference for TestSealMatchesReference.
func refCTRXOR(blk cipher.Block, nonce uint64, data []byte) []byte {
	bs := blk.BlockSize()
	out := make([]byte, len(data))
	block := make([]byte, bs)
	ks := make([]byte, bs)
	for i := 0; i < len(data); i += bs {
		binary.BigEndian.PutUint64(block[bs-8:], nonce+uint64(i/bs))
		blk.Encrypt(ks, block)
		for j := 0; j < bs && i+j < len(data); j++ {
			out[i+j] = data[i+j] ^ ks[j]
		}
	}
	return out
}

func refTag(blk cipher.Block, tagSize int, nonce uint64, ct []byte) ([]byte, error) {
	m, err := lwc.NewCMAC(blk)
	if err != nil {
		return nil, err
	}
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)
	m.Write(nb[:])
	m.Write(ct)
	return m.Sum(nil)[:tagSize], nil
}

// refSeal is the old Seal's framing for nonce n: n || ct || tag.
func refSeal(blk cipher.Block, n uint64, plaintext []byte) ([]byte, error) {
	ct := refCTRXOR(blk, n<<20, plaintext)
	t, err := refTag(blk, 8, n, ct)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 8, 8+len(ct)+len(t))
	binary.BigEndian.PutUint64(out, n)
	out = append(out, ct...)
	return append(out, t...), nil
}

// TestSealMatchesReference pins every sealed byte to the reference
// framing, for every cipher the channel accepts, over a run of messages
// on one session (the session's CMAC is Reset, not rebuilt, per tag).
// A twin session seals each message into a dst with a random prefix and
// random spare capacity: the prefix stays, and the appended bytes equal
// the reference message.
func TestSealMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, info := range lwc.NewRegistry().All() {
		key := make([]byte, info.DefaultKeyBits()/8)
		rng.Read(key)
		s, err := New(info, key)
		if err != nil {
			continue // 16-bit blocks cannot carry the framing
		}
		into, err := New(info, key)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := New(info, key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := info.New(key)
		if err != nil {
			t.Fatal(err)
		}
		for n := uint64(1); n <= 40; n++ {
			pt := make([]byte, rng.Intn(70))
			rng.Read(pt)
			got, err := s.Seal(nil, pt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refSeal(ref, n, pt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s message %d: Seal = %x, reference %x", info.Name, n, got, want)
			}
			prefix := make([]byte, rng.Intn(20))
			rng.Read(prefix)
			dst := append(make([]byte, 0, len(prefix)+rng.Intn(2*len(want))), prefix...)
			appended, err := into.Seal(dst, pt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(appended[:len(prefix)], prefix) || !bytes.Equal(appended[len(prefix):], want) {
				t.Fatalf("%s message %d: Seal(%x) = %x, want the prefix then %x", info.Name, n, prefix, appended, want)
			}
			opened, err := peer.Open(want)
			if err != nil || !bytes.Equal(opened, pt) {
				t.Fatalf("%s message %d: Open(reference) = %x, %v; want %x", info.Name, n, opened, err, pt)
			}
		}
	}
}
