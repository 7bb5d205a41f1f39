package lwc

import (
	"encoding/binary"
	"hash"
)

// DMPresent is a lightweight 64-bit hash in the DM-PRESENT-128 style
// (Bogdanov et al.): a Davies-Meyer compression function built from
// PRESENT-128, iterated Merkle-Damgard with length-strengthening padding.
// It is what Table III's "lightweight hash functions" category refers to;
// XLF's device layer uses it for firmware fingerprints on devices too
// small for SHA-256.
//
// The 64-bit output targets integrity tagging, not collision resistance
// against funded adversaries — exactly the trade-off NIST IR 8114
// describes for constrained devices.
type DMPresent struct {
	h   uint64
	len uint64
	// tail holds the len%8 bytes of a partial block.
	tail [8]byte
}

var _ hash.Hash = (*DMPresent)(nil)

// dmPresentIV is the initial chaining value (the hex expansion of pi).
const dmPresentIV uint64 = 0x243F6A8885A308D3

// NewDMPresent returns a new lightweight 64-bit hash.
func NewDMPresent() *DMPresent {
	return &DMPresent{h: dmPresentIV}
}

func (d *DMPresent) Reset()         { *d = DMPresent{h: dmPresentIV} } //xlf:allow-testonly hash.Hash, hidden from the type-check
func (d *DMPresent) Size() int      { return 8 }                       //xlf:allow-testonly hash.Hash, hidden from the type-check
func (d *DMPresent) BlockSize() int { return 8 }                       //xlf:allow-testonly hash.Hash, hidden from the type-check

// compress absorbs one 8-byte message block m into the chaining value h:
// H' = E_{H || M}(M) xor M, with the PRESENT-128 key schedule on the
// stack.
//
//xlf:hotpath
func compress(h, m uint64) uint64 {
	var c present
	c.expand128(h, m)
	return c.encrypt(m) ^ m
}

func (d *DMPresent) Write(p []byte) (int, error) {
	d.write(p)
	return len(p), nil
}

// write absorbs p in place: it tops up the buffered partial block, then
// compresses whole blocks straight from p and keeps the remainder.
func (d *DMPresent) write(p []byte) {
	fill := int(d.len % 8)
	d.len += uint64(len(p))
	if fill > 0 {
		k := copy(d.tail[fill:], p)
		p = p[k:]
		if fill+k < 8 {
			return
		}
		d.h = compress(d.h, binary.BigEndian.Uint64(d.tail[:]))
	}
	for ; len(p) >= 8; p = p[8:] {
		d.h = compress(d.h, binary.BigEndian.Uint64(p))
	}
	copy(d.tail[:], p)
}

// Sum appends the 8-byte digest to b without disturbing the running state.
func (d *DMPresent) Sum(b []byte) []byte {
	return binary.BigEndian.AppendUint64(b, d.sum())
}

// sum pads the buffered tail (0x80, zeros, 64-bit bit length) and
// finishes the digest without touching d.
func (d *DMPresent) sum() uint64 {
	fill := int(d.len % 8)
	var last [8]byte
	copy(last[:], d.tail[:fill])
	last[fill] = 0x80
	h := compress(d.h, binary.BigEndian.Uint64(last[:]))
	return compress(h, d.len*8)
}

// Sum64 returns the digest of data as a uint64 in one call, without
// allocating.
//
//xlf:hotpath
func Sum64(data []byte) uint64 {
	d := DMPresent{h: dmPresentIV}
	d.write(data)
	return d.sum()
}
