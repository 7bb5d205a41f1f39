package lwc

import (
	"crypto/cipher"
	"crypto/subtle"
	"fmt"
	"hash"
	"slices"
)

// CMAC (OMAC1, NIST SP 800-38B) over any 64- or 128-bit block cipher. The
// XLF device layer uses CMAC with a lightweight cipher as its message
// authentication primitive, per the paper's Table III framing of
// "lightweight MACs" built from lightweight block ciphers.

// cmacRb returns the finite-field constant for subkey derivation.
func cmacRb(blockSize int) byte {
	switch blockSize {
	case 8:
		return 0x1B
	case 16:
		return 0x87
	default:
		return 0
	}
}

// cmac keeps every block-sized buffer in a fixed array sliced to the
// cipher's block size, so Reset, Write and Sum never allocate.
type cmac struct {
	blk    cipher.Block
	n      int // block size: 8 or 16
	k1, k2 [16]byte
	// x is the chaining value; scratch is the next cipher input.
	x, scratch [16]byte
	// buf holds the pending block: the last block is processed at Sum
	// time, so a full block stays here until more input arrives.
	buf  [16]byte
	nbuf int
}

var _ hash.Hash = (*cmac)(nil)

// NewCMAC returns a hash.Hash computing CMAC over the given block cipher.
// Only 64- and 128-bit block ciphers are supported. The subkeys are
// derived once here; Reset keeps them.
func NewCMAC(blk cipher.Block) (hash.Hash, error) {
	n := blk.BlockSize()
	if cmacRb(n) == 0 {
		return nil, fmt.Errorf("lwc: CMAC requires a 64- or 128-bit block cipher, got %d bits", n*8)
	}
	m := &cmac{blk: blk, n: n}
	// Subkeys: L = E(0); K1 = dbl(L); K2 = dbl(K1). L is held in k2.
	blk.Encrypt(m.k2[:n], m.x[:n])
	dbl(m.k1[:n], m.k2[:n], cmacRb(n))
	dbl(m.k2[:n], m.k1[:n], cmacRb(n))
	return m, nil
}

// dbl doubles a field element into dst: left shift by one, conditionally
// XORing Rb.
func dbl(dst, v []byte, rb byte) {
	var carry byte
	for i := len(v) - 1; i >= 0; i-- {
		dst[i] = v[i]<<1 | carry
		carry = v[i] >> 7
	}
	// Constant-time conditional XOR of Rb into the last byte.
	dst[len(dst)-1] ^= rb & byte(subtle.ConstantTimeByteEq(carry, 1)*0xFF)
}

func (m *cmac) Size() int      { return m.n }
func (m *cmac) BlockSize() int { return m.n }

func (m *cmac) Reset() {
	m.x = [16]byte{}
	m.scratch = [16]byte{}
	m.buf = [16]byte{}
	m.nbuf = 0
}

// absorb chains one block that is known not to be the last.
func (m *cmac) absorb(block []byte) {
	subtle.XORBytes(m.scratch[:m.n], m.x[:m.n], block)
	m.blk.Encrypt(m.x[:m.n], m.scratch[:m.n])
}

func (m *cmac) Write(p []byte) (int, error) {
	written := len(p)
	for len(p) > 0 {
		// A full pending block is not the last one: more input follows.
		if m.nbuf == m.n {
			m.absorb(m.buf[:m.n])
			m.nbuf = 0
		}
		if m.nbuf == 0 {
			for ; len(p) > m.n; p = p[m.n:] {
				m.absorb(p[:m.n])
			}
		}
		k := copy(m.buf[m.nbuf:m.n], p)
		m.nbuf += k
		p = p[k:]
	}
	return written, nil
}

// Sum appends the MAC to b. Sum does not alter the running state, matching
// the hash.Hash contract.
func (m *cmac) Sum(b []byte) []byte {
	n := m.n
	last := m.scratch[:n]
	if m.nbuf == n {
		subtle.XORBytes(last, m.buf[:n], m.k1[:n])
	} else {
		copy(last, m.buf[:m.nbuf])
		last[m.nbuf] = 0x80
		clear(last[m.nbuf+1:])
		subtle.XORBytes(last, last, m.k2[:n])
	}
	subtle.XORBytes(last, last, m.x[:n])
	b = slices.Grow(b, n)
	tag := b[len(b) : len(b)+n]
	m.blk.Encrypt(tag, last)
	return b[:len(b)+n]
}
