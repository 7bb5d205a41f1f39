package channel

// Session mimics the lightweight-encryption channel; Seal is the
// sanitizer for the plaintextescape rule.
type Session struct{ nonce uint64 }

// Seal encrypts (here: frames) a plaintext payload, appending it to dst.
func (s *Session) Seal(dst, plaintext []byte) ([]byte, error) {
	s.nonce++
	out := append(dst, byte(s.nonce))
	return append(out, plaintext...), nil
}
