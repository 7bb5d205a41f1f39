package lwc

// The PRESENT, DM-PRESENT and CMAC implementations as they stood before
// the fused round tables and the allocation-free hash and MAC: a heap key
// schedule per hash block, an input copy per Write, fresh buffers per
// Reset and Sum. They are kept verbatim, renamed, as the references the
// differential tests and fuzz targets compare the production code with
// (refSum64's droperr waiver is dropped: xlf-vet skips test files).

import (
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash"
)

var refPresentSBoxInv = invert4(presentSBox)

type refPresent struct {
	rk [presentRounds + 1]uint64 // round keys K1..K32
}

func refNewPresent80(key []byte) *refPresent {
	// The 80-bit key register is kept as hi (64 bits, key bits 79..16) and
	// lo (16 bits, key bits 15..0).
	hi := binary.BigEndian.Uint64(key[0:8])
	lo := uint64(binary.BigEndian.Uint16(key[8:10]))

	var c refPresent
	for r := 1; r <= presentRounds+1; r++ {
		c.rk[r-1] = hi // leftmost 64 bits
		if r == presentRounds+1 {
			break
		}
		hi, lo = rotl80(hi, lo, 61)
		// S-box on the 4 most significant bits (bits 79..76 = hi 63..60).
		top := byte(hi >> 60)
		hi = hi&^(0xF<<60) | uint64(presentSBox[top])<<60
		// XOR round counter into key bits 19..15 (hi bits 3..0 hold key
		// bits 19..16; lo bit 15 holds key bit 15).
		rc := uint64(r)
		hi ^= rc >> 1
		lo ^= (rc & 1) << 15
	}
	return &c
}

func refNewPresent128(key []byte) *refPresent {
	hi := binary.BigEndian.Uint64(key[0:8])
	lo := binary.BigEndian.Uint64(key[8:16])

	var c refPresent
	for r := 1; r <= presentRounds+1; r++ {
		c.rk[r-1] = hi
		if r == presentRounds+1 {
			break
		}
		// Rotate the 128-bit register left by 61.
		nh := hi<<61 | lo>>3
		nl := lo<<61 | hi>>3
		hi, lo = nh, nl
		// S-box on the two most significant nibbles.
		hi = hi&^(0xFF<<56) |
			uint64(presentSBox[byte(hi>>60)])<<60 |
			uint64(presentSBox[byte(hi>>56)&0xF])<<56
		// XOR round counter into bits 66..62.
		rc := uint64(r)
		hi ^= rc >> 2
		lo ^= (rc & 3) << 62
	}
	return &c
}

func (c *refPresent) BlockSize() int { return 8 }

func refPresentPermute(s uint64) uint64 {
	return presentPermTab[0][byte(s)] |
		presentPermTab[1][byte(s>>8)] |
		presentPermTab[2][byte(s>>16)] |
		presentPermTab[3][byte(s>>24)] |
		presentPermTab[4][byte(s>>32)] |
		presentPermTab[5][byte(s>>40)] |
		presentPermTab[6][byte(s>>48)] |
		presentPermTab[7][byte(s>>56)]
}

func refPresentPermuteInv(s uint64) uint64 {
	return presentPermInvTab[0][byte(s)] |
		presentPermInvTab[1][byte(s>>8)] |
		presentPermInvTab[2][byte(s>>16)] |
		presentPermInvTab[3][byte(s>>24)] |
		presentPermInvTab[4][byte(s>>32)] |
		presentPermInvTab[5][byte(s>>40)] |
		presentPermInvTab[6][byte(s>>48)] |
		presentPermInvTab[7][byte(s>>56)]
}

func refPresentSub(s uint64, box *[16]byte) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		out |= uint64(box[s>>uint(4*i)&0xF]) << uint(4*i)
	}
	return out
}

func (c *refPresent) Encrypt(dst, src []byte) {
	checkBlock("PRESENT", 8, dst, src)
	s := binary.BigEndian.Uint64(src)
	for r := 0; r < presentRounds; r++ {
		s ^= c.rk[r]
		s = refPresentSub(s, &presentSBox)
		s = refPresentPermute(s)
	}
	s ^= c.rk[presentRounds]
	binary.BigEndian.PutUint64(dst, s)
}

func (c *refPresent) Decrypt(dst, src []byte) {
	checkBlock("PRESENT", 8, dst, src)
	s := binary.BigEndian.Uint64(src)
	s ^= c.rk[presentRounds]
	for r := presentRounds - 1; r >= 0; r-- {
		s = refPresentPermuteInv(s)
		s = refPresentSub(s, &refPresentSBoxInv)
		s ^= c.rk[r]
	}
	binary.BigEndian.PutUint64(dst, s)
}

type refDMPresent struct {
	h   uint64
	len uint64
	buf []byte
}

// refNewDMPresent returns a new lightweight 64-bit hash.
func refNewDMPresent() *refDMPresent {
	d := &refDMPresent{}
	d.Reset()
	return d
}

func (d *refDMPresent) Reset() {
	d.h = dmPresentIV
	d.len = 0
	d.buf = d.buf[:0]
}

// compress absorbs one 8-byte message block: H' = E_{H || M}(M) xor M.
func (d *refDMPresent) compress(block []byte) {
	var key [16]byte
	binary.BigEndian.PutUint64(key[0:], d.h)
	copy(key[8:], block)
	blk := refNewPresent128(key[:])
	var out [8]byte
	blk.Encrypt(out[:], block)
	d.h = binary.BigEndian.Uint64(out[:]) ^ binary.BigEndian.Uint64(block)
}

func (d *refDMPresent) Write(p []byte) (int, error) {
	d.len += uint64(len(p))
	d.buf = append(d.buf, p...)
	for len(d.buf) >= 8 {
		d.compress(d.buf[:8])
		d.buf = d.buf[8:]
	}
	return len(p), nil
}

// Sum appends the 8-byte digest to b without disturbing the running state.
func (d *refDMPresent) Sum(b []byte) []byte {
	// Clone state, then pad: 0x80, zeros, 64-bit length.
	clone := &refDMPresent{h: d.h, len: d.len}
	clone.buf = append(clone.buf, d.buf...)
	clone.buf = append(clone.buf, 0x80)
	for len(clone.buf)%8 != 0 {
		clone.buf = append(clone.buf, 0)
	}
	var lenBlock [8]byte
	binary.BigEndian.PutUint64(lenBlock[:], d.len*8)
	clone.buf = append(clone.buf, lenBlock[:]...)
	for len(clone.buf) >= 8 {
		clone.compress(clone.buf[:8])
		clone.buf = clone.buf[8:]
	}
	var out [8]byte
	binary.BigEndian.PutUint64(out[:], clone.h)
	return append(b, out[:]...)
}

// refSum64 returns the digest of data as a uint64 in one call.
func refSum64(data []byte) uint64 {
	d := refNewDMPresent()
	d.Write(data)
	var out [8]byte
	d.Sum(out[:0])
	return binary.BigEndian.Uint64(out[:])
}

type refCMAC struct {
	blk        cipher.Block
	k1, k2     []byte
	x, scratch []byte
	buf        []byte
}

// refNewCMAC returns a hash.Hash computing CMAC over the given block cipher.
// Only 64- and 128-bit block ciphers are supported.
func refNewCMAC(blk cipher.Block) (hash.Hash, error) {
	n := blk.BlockSize()
	if cmacRb(n) == 0 {
		return nil, fmt.Errorf("lwc: CMAC requires a 64- or 128-bit block cipher, got %d bits", n*8)
	}
	m := &refCMAC{blk: blk}
	// Subkeys: L = E(0); K1 = refDbl(L); K2 = refDbl(K1).
	l := make([]byte, n)
	blk.Encrypt(l, l)
	m.k1 = refDbl(l, cmacRb(n))
	m.k2 = refDbl(m.k1, cmacRb(n))
	m.Reset()
	return m, nil
}

// dbl doubles a field element: left shift by one, conditionally XORing Rb.
func refDbl(v []byte, rb byte) []byte {
	out := make([]byte, len(v))
	var carry byte
	for i := len(v) - 1; i >= 0; i-- {
		out[i] = v[i]<<1 | carry
		carry = v[i] >> 7
	}
	// Constant-time conditional XOR of Rb into the last byte.
	out[len(out)-1] ^= rb & byte(subtle.ConstantTimeByteEq(carry, 1)*0xFF)
	return out
}

func (m *refCMAC) Size() int      { return m.blk.BlockSize() }
func (m *refCMAC) BlockSize() int { return m.blk.BlockSize() }

func (m *refCMAC) Reset() {
	n := m.blk.BlockSize()
	m.x = make([]byte, n)
	m.scratch = make([]byte, n)
	m.buf = m.buf[:0]
}

func (m *refCMAC) Write(p []byte) (int, error) {
	n := m.blk.BlockSize()
	m.buf = append(m.buf, p...)
	// Process all complete blocks except a possibly-final one (the last
	// block is handled specially at Sum time).
	for len(m.buf) > n {
		refXorBytes(m.scratch, m.x, m.buf[:n])
		m.blk.Encrypt(m.x, m.scratch)
		m.buf = m.buf[n:]
	}
	return len(p), nil
}

// Sum appends the MAC to b. Sum does not alter the running state, matching
// the hash.Hash contract.
func (m *refCMAC) Sum(b []byte) []byte {
	n := m.blk.BlockSize()
	last := make([]byte, n)
	switch {
	case len(m.buf) == n:
		refXorBytes(last, m.buf, m.k1)
	default:
		copy(last, m.buf)
		last[len(m.buf)] = 0x80
		refXorBytes(last, last, m.k2)
	}
	refXorBytes(last, last, m.x)
	tag := make([]byte, n)
	m.blk.Encrypt(tag, last)
	return append(b, tag...)
}

func refXorBytes(dst, a, b []byte) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}
