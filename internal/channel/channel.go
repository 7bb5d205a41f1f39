// Package channel implements XLF's device-layer lightweight encryption
// function (§IV-A2): an authenticated-encryption session between a
// constrained device and the XLF Core on the gateway, built from Table III
// primitives (CTR mode + truncated CMAC over the same cipher). The cipher
// is negotiated per device by the cost model — the strongest algorithm the
// device's RAM and cycle budget affords — and every sealed byte is charged
// to the device's battery.
package channel

import (
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"unsafe"

	"xlf/internal/device"
	"xlf/internal/lwc"
)

// Errors returned by Open.
var (
	ErrTooShort    = errors.New("channel: message too short")
	ErrBadTag      = errors.New("channel: integrity tag mismatch")
	ErrReplay      = errors.New("channel: replayed or reordered nonce")
	ErrNoCipher    = errors.New("channel: no affordable cipher for device")
	ErrOutOfEnergy = errors.New("channel: device battery exhausted")
	ErrTooLong     = errors.New("channel: message exceeds one nonce's keystream")
)

// Each message's CTR keystream starts at counter nonce<<ctrBits, so a
// message may span at most 1<<ctrBits blocks before it would reuse the
// next nonce's keystream.
const ctrBits = 20

// Negotiate picks the strongest affordable cipher for a device profile:
// among the algorithms whose working RAM fits, it prefers the largest
// effective key, breaking ties by lower cycle cost. DES-class algorithms
// (<=64-bit keys) are never selected — they appear in Table III as
// baselines, not recommendations.
func Negotiate(p device.Profile, reg *lwc.Registry) (lwc.Info, error) {
	var best lwc.Info
	found := false
	for _, info := range reg.ByCost() {
		if !device.CostModel(p, info.CyclesPerByte, info.RAMBytes).Fits {
			continue
		}
		if info.DefaultKeyBits() <= 64 {
			continue // DES/DESL: broken key sizes
		}
		if info.BlockSize < 64 {
			continue // 16-bit blocks cannot carry the CTR+CMAC framing
		}
		if !found ||
			info.DefaultKeyBits() > best.DefaultKeyBits() ||
			(info.DefaultKeyBits() == best.DefaultKeyBits() && info.CyclesPerByte < best.CyclesPerByte) {
			best = info
			found = true
		}
	}
	if !found {
		return lwc.Info{}, ErrNoCipher
	}
	return best, nil
}

// Session is one direction of an authenticated-encryption channel. Both
// ends construct it from the same key material; the sender's nonce counter
// and the receiver's replay window advance independently.
type Session struct {
	// Algorithm names the negotiated Table III cipher.
	Algorithm string
	blk       cipher.Block
	// mac is the session's CMAC, keyed once; each tag Resets it.
	mac     hash.Hash
	tagSize int

	// Scratch blocks live here, not on the stack: a slice passed to a
	// cipher.Block or hash.Hash method escapes through the interface.
	ctr, ks, tagBuf [16]byte

	sendNonce uint64
	recvHigh  uint64

	// cost charges the owning device per processed KB; nil = free
	// (gateway side).
	cost *deviceMeter
}

type deviceMeter struct {
	dev  *device.Device
	cost device.CipherCost
}

// New creates a session over a negotiated cipher and key. The key length
// must match the algorithm's default key size.
func New(info lwc.Info, key []byte) (*Session, error) {
	blk, err := info.New(key)
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	if blk.BlockSize() < 8 {
		return nil, fmt.Errorf("channel: %s block too small for CTR+CMAC framing", info.Name)
	}
	mac, err := lwc.NewCMAC(blk)
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	return &Session{Algorithm: info.Name, blk: blk, mac: mac, tagSize: 8}, nil
}

// ForProfile negotiates a cipher for a hardware profile and derives the
// session key from the provisioning key with the lightweight hash (a KDF
// stand-in). The session is unmetered — this is what the gateway/core side
// uses to build the peer of a device session.
func ForProfile(p device.Profile, reg *lwc.Registry, key []byte) (*Session, error) {
	info, err := Negotiate(p, reg)
	if err != nil {
		return nil, err
	}
	return derive(info, key)
}

// ForDevice negotiates a cipher for the device's profile, creates the
// session, and meters every sealed/opened byte against its battery.
func ForDevice(d *device.Device, reg *lwc.Registry, key []byte) (*Session, error) {
	info, err := Negotiate(d.Profile, reg)
	if err != nil {
		return nil, err
	}
	s, err := derive(info, key)
	if err != nil {
		return nil, err
	}
	s.cost = &deviceMeter{
		dev:  d,
		cost: device.CostModel(d.Profile, info.CyclesPerByte, info.RAMBytes),
	}
	return s, nil
}

// derive expands the provisioning key to the cipher's default key size
// and creates the session.
func derive(info lwc.Info, key []byte) (*Session, error) {
	if len(key) == 0 {
		return nil, errors.New("channel: empty key")
	}
	want := info.DefaultKeyBits() / 8
	mat := make([]byte, 0, want)
	ctr := uint64(0)
	for len(mat) < want {
		h := lwc.NewDMPresent()
		var c [8]byte
		binary.BigEndian.PutUint64(c[:], ctr)
		h.Write(c[:])
		h.Write(key)
		mat = h.Sum(mat)
		ctr++
	}
	return New(info, mat[:want])
}

func (s *Session) charge(n int) error {
	if s.cost == nil {
		return nil
	}
	if !s.cost.dev.SpendCrypto(s.cost.cost, n) {
		return ErrOutOfEnergy
	}
	return nil
}

// ctrXOR writes src XOR the CTR keystream from counter ctr into dst.
func (s *Session) ctrXOR(dst, src []byte, ctr uint64) {
	bs := s.blk.BlockSize()
	block, ks := s.ctr[:bs], s.ks[:bs]
	for i := 0; i < len(src); i += bs {
		binary.BigEndian.PutUint64(block[bs-8:], ctr+uint64(i/bs))
		s.blk.Encrypt(ks, block)
		subtle.XORBytes(dst[i:], src[i:], ks)
	}
}

// tooLong reports whether n bytes span more CTR blocks than one nonce
// owns.
func (s *Session) tooLong(n int) bool {
	return uint64(n) > uint64(s.blk.BlockSize())<<ctrBits
}

// tag returns the truncated CMAC of nonce || ct, held in session scratch.
func (s *Session) tag(body []byte) []byte {
	s.mac.Reset()
	s.mac.Write(body)
	return s.mac.Sum(s.tagBuf[:0])[:s.tagSize]
}

// Seal encrypts and authenticates plaintext, appends the message
// nonce || ct || tag to dst and returns the result, in the
// crypto/cipher.AEAD idiom: a caller that keeps a buffer with room for
// the message passes it as dst and Seal allocates nothing, and a nil dst
// gets a fresh message. The nonce is written before the plaintext is
// read, so the appended bytes must not overlap plaintext (the AEAD
// in-place form plaintext[:0] is refused too); Seal panics if they do.
// The device battery is charged for the processed bytes. On error dst
// is left untouched.
func (s *Session) Seal(dst, plaintext []byte) ([]byte, error) {
	if s.tooLong(len(plaintext)) {
		return nil, ErrTooLong
	}
	if err := s.charge(len(plaintext) + s.tagSize); err != nil {
		return nil, err
	}
	ret, out := sliceForAppend(dst, 8+len(plaintext)+s.tagSize)
	if anyOverlap(out, plaintext) {
		panic("channel: Seal output overlaps plaintext")
	}
	s.sendNonce++
	n := s.sendNonce
	body := out[:8+len(plaintext)]
	binary.BigEndian.PutUint64(body, n)
	s.ctrXOR(body[8:], plaintext, n<<ctrBits)
	copy(out[len(body):], s.tag(body))
	return ret, nil
}

// sliceForAppend extends in by n bytes, reallocating only when its
// capacity is short, and returns the whole slice and its n-byte tail.
func sliceForAppend(in []byte, n int) (head, tail []byte) {
	if total := len(in) + n; cap(in) >= total {
		head = in[:total]
	} else {
		head = make([]byte, total)
		copy(head, in)
	}
	return head, head[len(in):]
}

// anyOverlap reports whether x and y share any byte of memory.
func anyOverlap(x, y []byte) bool {
	return len(x) > 0 && len(y) > 0 &&
		uintptr(unsafe.Pointer(&x[0])) <= uintptr(unsafe.Pointer(&y[len(y)-1])) &&
		uintptr(unsafe.Pointer(&y[0])) <= uintptr(unsafe.Pointer(&x[len(x)-1]))
}

// Open verifies and decrypts, enforcing strictly increasing nonces (replay
// protection — one of the §II-B channel requirements). The returned
// plaintext is Open's only allocation.
func (s *Session) Open(msg []byte) ([]byte, error) {
	if len(msg) < 8+s.tagSize {
		return nil, ErrTooShort
	}
	body, gotTag := msg[:len(msg)-s.tagSize], msg[len(msg)-s.tagSize:]
	ct := body[8:]
	if s.tooLong(len(ct)) {
		return nil, ErrTooLong
	}
	if !constEq(gotTag, s.tag(body)) {
		return nil, ErrBadTag
	}
	n := binary.BigEndian.Uint64(msg[:8])
	if n <= s.recvHigh {
		return nil, ErrReplay
	}
	if err := s.charge(len(ct) + s.tagSize); err != nil {
		return nil, err
	}
	s.recvHigh = n
	pt := make([]byte, len(ct))
	s.ctrXOR(pt, ct, n<<ctrBits)
	return pt, nil
}

// constEq compares tags in constant time via crypto/subtle; the
// earlier hand-rolled XOR loop is gone so the constant-time property is
// the standard library's, not ours to re-verify.
func constEq(a, b []byte) bool {
	return subtle.ConstantTimeCompare(a, b) == 1
}
