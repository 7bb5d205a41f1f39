// Package xauth implements the XLF authentication design of §IV-A1: an
// SSO token scheme, a cloud authority that combines SSO with multi-factor
// authentication, and the XLF delegation proxy that caches SSO tokens,
// validates timestamps, and serves LAN requests locally so that
// constrained devices never run the SSO math themselves.
//
// The Barreto et al. baseline (cloud-roundtrip for basic users, on-device
// SSO for advanced users) is implemented alongside for the E3 experiment.
package xauth

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"strconv"
	"sync"
	"time"
)

// Privilege is the user class from the paper: basic users read processed
// data; advanced users may push firmware and change configuration.
type Privilege int

// Privilege levels.
const (
	Basic Privilege = iota + 1
	Advanced
)

func (p Privilege) String() string {
	switch p {
	case Basic:
		return "basic"
	case Advanced:
		return "advanced"
	default:
		return fmt.Sprintf("Privilege(%d)", int(p))
	}
}

// Token is a signed SSO token. Times are simulation offsets, not wall
// clock: the whole testbed runs on the sim kernel.
type Token struct {
	Subject   string
	Device    string // target device ID, "" = any
	Priv      Privilege
	IssuedAt  time.Duration
	ExpiresAt time.Duration
	// MFA records that a second factor was verified at issuance.
	MFA bool
	// Sig is the HMAC-SHA256 over the other fields.
	Sig []byte
}

// Errors returned by Verify.
var (
	ErrBadSignature = errors.New("xauth: bad token signature")
	ErrExpired      = errors.New("xauth: token expired")
	ErrNotYetValid  = errors.New("xauth: token issued in the future")
	ErrWrongDevice  = errors.New("xauth: token bound to a different device")
)

// Signer issues and verifies tokens with a shared secret. It keys one
// HMAC-SHA256 at construction and resets it per MAC; the mutex keeps a
// Signer, which Authority.Signer hands out, safe for concurrent use.
type Signer struct {
	mu  sync.Mutex
	mac hash.Hash
	// msg and sum are the MAC input and output scratch, guarded by mu.
	msg []byte
	sum [sha256.Size]byte
}

// NewSigner builds a signer; the key must be non-empty.
func NewSigner(key []byte) (*Signer, error) {
	if len(key) == 0 {
		return nil, errors.New("xauth: empty signing key")
	}
	return &Signer{mac: hmac.New(sha256.New, key)}, nil
}

// macLocked appends the HMAC of t's claims to b. The MAC input is the
// text fmt formats as "%s|%s|%d|%d|%d|%t" from Subject, Device, Priv,
// IssuedAt, ExpiresAt and MFA, built without fmt. The caller holds s.mu.
func (s *Signer) macLocked(b []byte, t *Token) []byte {
	m := append(s.msg[:0], t.Subject...)
	m = append(m, '|')
	m = append(m, t.Device...)
	m = append(m, '|')
	m = strconv.AppendInt(m, int64(t.Priv), 10)
	m = append(m, '|')
	m = strconv.AppendInt(m, int64(t.IssuedAt), 10)
	m = append(m, '|')
	m = strconv.AppendInt(m, int64(t.ExpiresAt), 10)
	m = append(m, '|')
	m = strconv.AppendBool(m, t.MFA)
	s.msg = m
	s.mac.Reset()
	s.mac.Write(m)
	return s.mac.Sum(b)
}

// Issue creates a signed token valid for lifetime from now.
func (s *Signer) Issue(subject, deviceID string, priv Privilege, mfa bool, now, lifetime time.Duration) Token {
	t := Token{
		Subject:   subject,
		Device:    deviceID,
		Priv:      priv,
		IssuedAt:  now,
		ExpiresAt: now + lifetime,
		MFA:       mfa,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t.Sig = s.macLocked(make([]byte, 0, sha256.Size), &t)
	return t
}

// Verify checks signature and the timestamp window, and optionally the
// device binding. This is the "SSO authentication and timestamps
// validation" the paper moves off the device onto the proxy.
func (s *Signer) Verify(t Token, now time.Duration, deviceID string) error {
	if !s.validSig(&t) {
		return ErrBadSignature
	}
	if now > t.ExpiresAt {
		return ErrExpired
	}
	if t.IssuedAt > now {
		return ErrNotYetValid
	}
	if t.Device != "" && deviceID != "" && t.Device != deviceID {
		return ErrWrongDevice
	}
	return nil
}

// validSig recomputes t's MAC into the Signer's own array and compares
// it with t.Sig in constant time.
func (s *Signer) validSig(t *Token) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return hmac.Equal(s.macLocked(s.sum[:0], t), t.Sig)
}

// Redact renders a token for logs, errors and metrics labels without
// the signature or device binding: subject, privilege and a 4-byte
// signature prefix, enough to correlate log lines without making the
// log a credential store. This is the sanitizer the secretleak taint
// rule accepts between token material and observability sinks.
//
//xlf:allow-testonly the display form secretleak's advice names
func Redact(t Token) string {
	sig := "unsigned"
	if len(t.Sig) >= 4 {
		sig = fmt.Sprintf("%x…", t.Sig[:4])
	}
	return fmt.Sprintf("token(%s/%s sig=%s)", t.Subject, t.Priv, sig)
}
