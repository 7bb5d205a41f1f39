package lwc

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestPresentMatchesReference pins the fused-table PRESENT to the
// nibble-loop reference: Encrypt and Decrypt, 80- and 128-bit keys.
func TestPresentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, keyLen := range []int{10, 16} {
		for i := 0; i < 200; i++ {
			key := make([]byte, keyLen)
			rng.Read(key)
			got, err := NewPRESENT(key)
			if err != nil {
				t.Fatal(err)
			}
			var want cipher.Block = refNewPresent80(key)
			if keyLen == 16 {
				want = refNewPresent128(key)
			}
			var src, g, w [8]byte
			rng.Read(src[:])
			got.Encrypt(g[:], src[:])
			want.Encrypt(w[:], src[:])
			if g != w {
				t.Fatalf("%d-bit key %x: Encrypt(%x) = %x, reference %x", keyLen*8, key, src, g, w)
			}
			got.Decrypt(g[:], src[:])
			want.Decrypt(w[:], src[:])
			if g != w {
				t.Fatalf("%d-bit key %x: Decrypt(%x) = %x, reference %x", keyLen*8, key, src, g, w)
			}
		}
	}
}

// writeChunked feeds data to h in the chunk sizes of pattern (cycled;
// a size of 0 writes an empty chunk, then one byte), returning each
// mid-stream Sum.
func writeChunked(h interface {
	Write([]byte) (int, error)
	Sum([]byte) []byte
}, data, pattern []byte) [][]byte {
	var sums [][]byte
	for i := 0; len(data) > 0; i++ {
		n := len(data)
		if len(pattern) > 0 {
			n = int(pattern[i%len(pattern)]) % 24
			if n == 0 {
				h.Write(nil)
				n = 1
			}
			n = min(n, len(data))
		}
		h.Write(data[:n])
		data = data[n:]
		sums = append(sums, h.Sum(nil))
	}
	return append(sums, h.Sum(nil))
}

// TestSum64MatchesReference pins the in-place DM-PRESENT to the
// buffering reference on every input length from 0 to 299, and on
// random Write chunkings with Sum taken after every chunk.
func TestSum64MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 300; n++ {
		data := make([]byte, n)
		rng.Read(data)
		if got, want := Sum64(data), refSum64(data); got != want {
			t.Fatalf("len %d: Sum64 = %016x, reference %016x", n, got, want)
		}
		pattern := make([]byte, 1+rng.Intn(6))
		rng.Read(pattern)
		got := writeChunked(NewDMPresent(), data, pattern)
		want := writeChunked(refNewDMPresent(), data, pattern)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("len %d chunks %v: Sum %d = %x, reference %x", n, pattern, i, got[i], want[i])
			}
		}
	}
}

// FuzzSum64 checks Sum64 and a chunked DMPresent (Sum after every
// chunk, then Reset and rehash) against the reference.
func FuzzSum64(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte("firmware v1.0"), []byte{3, 0, 8})
	f.Add(bytes.Repeat([]byte{0xA5}, 67), []byte{7, 9, 1})
	f.Fuzz(func(t *testing.T, data, pattern []byte) {
		if got, want := Sum64(data), refSum64(data); got != want {
			t.Fatalf("Sum64 = %016x, reference %016x", got, want)
		}
		d := NewDMPresent()
		d.Write([]byte("stale"))
		d.Reset()
		got := writeChunked(d, data, pattern)
		want := writeChunked(refNewDMPresent(), data, pattern)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("Sum %d = %x, reference %x", i, got[i], want[i])
			}
		}
	})
}

// FuzzCMAC checks CMAC over a 64-bit (PRESENT-128) and a 128-bit (AES)
// block cipher against the reference, under a fuzzed Write chunking and
// a Reset between two messages.
func FuzzCMAC(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{7}, 16), []byte("hello iot"), []byte{8})
	f.Add([]byte("0123456789abcdef"), bytes.Repeat([]byte{1}, 40), []byte{16, 0, 5})
	f.Fuzz(func(t *testing.T, key, data, pattern []byte) {
		var k [16]byte
		copy(k[:], key)
		present, _ := NewPRESENT(k[:])
		aesBlk, _ := aes.NewCipher(k[:])
		for _, blk := range []cipher.Block{present, aesBlk} {
			m, err := NewCMAC(blk)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refNewCMAC(blk)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				got := writeChunked(m, data, pattern)
				want := writeChunked(ref, data, pattern)
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("%d-bit block, round %d: Sum %d = %x, reference %x",
							blk.BlockSize()*8, round, i, got[i], want[i])
					}
				}
				m.Reset()
				ref.Reset()
				data = binary.BigEndian.AppendUint64(data, uint64(len(pattern)))
			}
		}
	})
}
