package lwc

import (
	"crypto/cipher"
	"encoding/binary"
	"math/bits"
)

// Hummingbird (Engels et al., 2010) and Hummingbird-2 (Engels et al., RFID
// Sec 2011) are ultra-lightweight 16-bit block designs with 256-bit keys
// for RFID-class devices. The full designs are rotor-machine hybrids with
// internal state; Table III lists their core keyed permutation (16-bit
// block, SPN, 4 rounds), which is what this file implements as a
// cipher.Block — the WD16-style function: four rounds of subkey XOR, four
// 4-bit S-boxes, and the linear transform L(x) = x ^ (x<<<6) ^ (x<<<10).
// These are structure-faithful reimplementations validated by property
// tests; the stateful rotor mode of the original design is not modelled.

// hb2SBoxes are the four 4-bit S-boxes of the WD16-style round.
var hb2SBoxes = [4][16]byte{
	{0x7, 0xC, 0xE, 0x9, 0x2, 0x1, 0x5, 0xF, 0xB, 0x6, 0xD, 0x0, 0x4, 0x8, 0xA, 0x3},
	{0x4, 0xA, 0x1, 0x6, 0x8, 0xF, 0x7, 0xC, 0x3, 0x0, 0xE, 0xD, 0x5, 0x9, 0xB, 0x2},
	{0x2, 0xF, 0xC, 0x1, 0x5, 0x6, 0xA, 0xD, 0xE, 0x8, 0x3, 0x4, 0x0, 0xB, 0x9, 0x7},
	{0xF, 0x4, 0x5, 0x8, 0x9, 0x7, 0x2, 0x1, 0xA, 0x3, 0x0, 0xE, 0x6, 0xC, 0xD, 0xB},
}

var hb2SBoxesInv = func() [4][16]byte {
	var inv [4][16]byte
	for i := range hb2SBoxes {
		inv[i] = invert4(hb2SBoxes[i])
	}
	return inv
}()

// hbLinear is L(x) = x ^ (x<<<6) ^ (x<<<10); hbLinearInv is its GF(2)
// inverse, precomputed once.
func hbLinear(x uint16) uint16 {
	return x ^ bits.RotateLeft16(x, 6) ^ bits.RotateLeft16(x, 10)
}

var hbLinearInvMat = invertLinear16(hbLinear)

func hbLinearInv(x uint16) uint16 { return applyLinear16(hbLinearInvMat, x) }

func hbSub(x uint16, boxes *[4][16]byte) uint16 {
	return uint16(boxes[0][x>>12&0xF])<<12 |
		uint16(boxes[1][x>>8&0xF])<<8 |
		uint16(boxes[2][x>>4&0xF])<<4 |
		uint16(boxes[3][x&0xF])
}

type hummingbird struct {
	// rk holds 16 round-key words: 4 rounds x 4 words consumed one per
	// round per the WD16 keying, plus final whitening from the remainder.
	rk    [16]uint16
	white uint16
	// v2 selects the Hummingbird-2 variant (extra post-round rotation).
	v2 bool
}

var _ cipher.Block = (*hummingbird)(nil)

// NewHummingbird returns the original Hummingbird core permutation for a
// 32-byte (256-bit) key.
func NewHummingbird(key []byte) (cipher.Block, error) {
	return newHB(key, false, "Hummingbird")
}

// NewHummingbird2 returns the Hummingbird-2 core permutation for a 32-byte
// (256-bit) key.
func NewHummingbird2(key []byte) (cipher.Block, error) {
	return newHB(key, true, "Hummingbird2")
}

func newHB(key []byte, v2 bool, name string) (cipher.Block, error) {
	if len(key) != 32 {
		return nil, KeySizeError{Algorithm: name, Len: len(key)}
	}
	c := &hummingbird{v2: v2}
	for i := 0; i < 16; i++ {
		c.rk[i] = binary.BigEndian.Uint16(key[2*i:])
	}
	for _, w := range c.rk {
		c.white ^= w
	}
	return c, nil
}

func (c *hummingbird) BlockSize() int { return 2 }

func (c *hummingbird) Encrypt(dst, src []byte) {
	checkBlock("Hummingbird", 2, dst, src)
	x := binary.BigEndian.Uint16(src)
	for r := 0; r < 4; r++ {
		x ^= c.rk[4*r] ^ c.rk[4*r+1]
		x = hbSub(x, &hb2SBoxes)
		x = hbLinear(x)
		if c.v2 {
			x ^= c.rk[4*r+2]
			x = bits.RotateLeft16(x, 3)
		}
	}
	x ^= c.white
	binary.BigEndian.PutUint16(dst, x)
}

func (c *hummingbird) Decrypt(dst, src []byte) {
	checkBlock("Hummingbird", 2, dst, src)
	x := binary.BigEndian.Uint16(src)
	x ^= c.white
	for r := 3; r >= 0; r-- {
		if c.v2 {
			x = bits.RotateLeft16(x, -3)
			x ^= c.rk[4*r+2]
		}
		x = hbLinearInv(x)
		x = hbSub(x, &hb2SBoxesInv)
		x ^= c.rk[4*r] ^ c.rk[4*r+1]
	}
	binary.BigEndian.PutUint16(dst, x)
}
