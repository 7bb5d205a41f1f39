// Package cryptofix exercises the cryptomisuse rule: hardcoded, short
// and math/rand-derived keys, constant and reused nonces, and
// non-constant-time MAC comparisons.
package cryptofix

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	mrand "math/rand"

	"example.com/m/vault"
)

func hardKey() *vault.Cipher {
	return vault.NewCipher([]byte("0123456789abcdef")) // want "hardcoded 16-byte key literal"
}

func hardKeyVar() *vault.Cipher {
	key := []byte("0123456789abcdef")
	return vault.NewCipher(key) // want "hardcoded 16-byte key literal"
}

func hardShortKey() *vault.Cipher {
	key := []byte{0x01, 0x02, 0x03}
	return vault.NewCipher(key) // want "hardcoded 3-byte key literal for vault\.NewCipher .below the 16-byte minimum."
}

func shortKey() *vault.Cipher {
	key := make([]byte, 8)
	fill(key)
	return vault.NewCipher(key) // want "key for vault\.NewCipher is only 8 bytes .minimum 16."
}

func hmacHardKey() []byte {
	m := hmac.New(sha256.New, []byte("secret")) // want "hardcoded 6-byte key literal for hmac\.New"
	return m.Sum(nil)
}

func randKey() *vault.Cipher {
	key := make([]byte, 16)
	mrand.Read(key)
	return vault.NewCipher(key) // want "key material .key. for vault\.NewCipher drawn from math/rand"
}

func randKeyExpr(n int) *vault.Cipher {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(mrand.Intn(256))
	}
	return vault.NewCipher(key) // want "key material .key. for vault\.NewCipher drawn from math/rand"
}

// okParamKey takes key material from the caller: provenance is theirs.
func okParamKey(key []byte) *vault.Cipher {
	return vault.NewCipher(key)
}

// okDerivedKey obtains the key dynamically.
func okDerivedKey(secret []byte) *vault.Cipher {
	return vault.NewCipher(derive(secret))
}

// okBranchMixed has a literal on only one reaching path.
func okBranchMixed(provisioned []byte, demo bool) *vault.Cipher {
	key := provisioned
	if demo {
		key = deriveDemo()
	}
	return vault.NewCipher(key)
}

// demoCipher is the sanctioned escape hatch.
//
//xlf:allow-cryptomisuse fixed demo key, reviewed
func demoCipher() *vault.Cipher {
	return vault.NewCipher([]byte("fixed-demo-key!!"))
}

func sealConstNonce(b *vault.Box, msg []byte) []byte {
	return b.Seal(nil, []byte("000000000000"), msg, nil) // want "constant nonce/IV passed to b\.Seal"
}

func sealRandNonce(b *vault.Box, msg []byte) []byte {
	nonce := make([]byte, 12)
	mrand.Read(nonce)
	return b.Seal(nil, nonce, msg, nil) // want "nonce .nonce. for b\.Seal drawn from math/rand"
}

func sealTwice(b *vault.Box, nonce, p1, p2 []byte) ([]byte, []byte) {
	c1 := b.Seal(nil, nonce, p1, nil)
	c2 := b.Seal(nil, nonce, p2, nil) // want "nonce .nonce. is reused by this b\.Seal call"
	return c1, c2
}

func sealLoop(b *vault.Box, nonce []byte, msgs [][]byte) [][]byte {
	var out [][]byte
	for _, m := range msgs {
		out = append(out, b.Seal(nil, nonce, m, nil)) // want "nonce .nonce. is reused by this b\.Seal call"
	}
	return out
}

// sealFresh rewrites the nonce before every Seal: no reuse.
func sealFresh(b *vault.Box, msgs [][]byte) [][]byte {
	var out [][]byte
	for i, m := range msgs {
		nonce := counter(uint64(i))
		out = append(out, b.Seal(nil, nonce, m, nil))
	}
	return out
}

// sealSequenced rewrites a shared nonce variable between the two calls.
func sealSequenced(b *vault.Box, p1, p2 []byte) ([]byte, []byte) {
	nonce := counter(1)
	c1 := b.Seal(nil, nonce, p1, nil)
	nonce = counter(2)
	c2 := b.Seal(nil, nonce, p2, nil)
	return c1, c2
}

func weakTagEqual(tag, want []byte) bool {
	return bytes.Equal(tag, want) // want "MAC/tag compared with bytes\.Equal"
}

func weakSumEqual(m1 []byte) bool {
	h := sha256.New()
	return bytes.Equal(h.Sum(nil), m1) // want "MAC/tag compared with bytes\.Equal"
}

func weakTagString(tag, expect string) bool {
	return tag == expect // want "MAC/tag compared with =="
}

func weakTagConvert(tag, expect []byte) bool {
	return string(tag) != string(expect) // want "MAC/tag compared with !="
}

// okSizeCompare compares lengths, not material.
func okSizeCompare(tagSize int) bool {
	return tagSize == 8
}

// okPayloadEqual compares non-secret payloads.
func okPayloadEqual(payload, expect []byte) bool {
	return bytes.Equal(payload, expect)
}

func fill(b []byte) {
	for i := range b {
		b[i] = byte(i)
	}
}

func derive(secret []byte) []byte {
	h := sha256.Sum256(secret)
	return h[:16]
}

func deriveDemo() []byte { return derive([]byte{0xff}) }

func counter(n uint64) []byte {
	out := make([]byte, 12)
	for i := 0; i < 8; i++ {
		out[i] = byte(n >> (8 * i))
	}
	return out
}
