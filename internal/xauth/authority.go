package xauth

import (
	"errors"
	"fmt"
	"time"

	"xlf/internal/obs"
)

// User is an account at the cloud authority.
type User struct {
	Name     string
	Password string
	Priv     Privilege
	// MFASecret enables the second factor; empty disables MFA for the
	// account (weaker).
	MFASecret string
}

// Authority is the cloud identity provider: it authenticates users
// (password + optional MFA) and issues SSO tokens. Per §IV-A1 the
// authority combines "both SSO and MFA mechanisms" for WAN requests.
type Authority struct {
	signer *Signer
	users  map[string]User
	// DefaultLifetime is used unless a lifetime policy overrides it.
	DefaultLifetime time.Duration
	// LifetimePolicy, when set, decides per-token lifetime; the XLF Core
	// installs its correlation-driven policy here (§IV-A1: "The XLF Core
	// determines the lifetime of the authentication tokens based on the
	// correlation results").
	LifetimePolicy func(user User, deviceID string) time.Duration

	// Tracer, when set, receives an xauth-layer span per token issuance,
	// verification and refusal. Spans never carry token material — only
	// user/device names and error labels.
	Tracer *obs.Tracer

	issued  uint64
	refused uint64
}

// Authentication errors.
var (
	ErrUnknownUser = errors.New("xauth: unknown user")
	ErrBadPassword = errors.New("xauth: bad password")
	ErrBadMFA      = errors.New("xauth: bad MFA code")
	ErrNeedMFA     = errors.New("xauth: account requires MFA")
	ErrPrivTooLow  = errors.New("xauth: privilege too low for operation")
)

// NewAuthority creates an identity provider with a signing key.
func NewAuthority(key []byte, users []User) (*Authority, error) {
	s, err := NewSigner(key)
	if err != nil {
		return nil, err
	}
	a := &Authority{
		signer:          s,
		users:           make(map[string]User, len(users)),
		DefaultLifetime: time.Hour,
	}
	for _, u := range users {
		if u.Name == "" {
			return nil, errors.New("xauth: user with empty name")
		}
		if _, dup := a.users[u.Name]; dup {
			return nil, fmt.Errorf("xauth: duplicate user %q", u.Name)
		}
		a.users[u.Name] = u
	}
	return a, nil
}

// Signer exposes the token signer so proxies and devices can verify
// without re-contacting the cloud.
func (a *Authority) Signer() *Signer { return a.signer }

// Stats returns (tokensIssued, authRefusals).
func (a *Authority) Stats() (uint64, uint64) { return a.issued, a.refused } //xlf:allow-testonly bench/_perf reads them

// mfaCode derives the expected MFA code for a secret at a time step; a
// TOTP stand-in that is deterministic in simulation time.
func mfaCode(secret string, now time.Duration) string {
	step := int64(now / (30 * time.Second))
	return fmt.Sprintf("%s-%06d", secret, step%1000000)
}

// MFACodeFor returns the currently valid code for a user, playing the
// role of the user's authenticator app in tests and experiments.
func (a *Authority) MFACodeFor(user string, now time.Duration) (string, error) {
	u, ok := a.users[user]
	if !ok {
		return "", ErrUnknownUser
	}
	if u.MFASecret == "" {
		return "", ErrNeedMFA
	}
	return mfaCode(u.MFASecret, now), nil
}

// Authenticate verifies password (+ MFA when enrolled) and issues an SSO
// token bound to deviceID ("" = any device).
func (a *Authority) Authenticate(user, password, mfa, deviceID string, now time.Duration) (Token, error) {
	u, ok := a.users[user]
	if !ok {
		return Token{}, a.refuse(now, deviceID, user, ErrUnknownUser)
	}
	if u.Password != password {
		return Token{}, a.refuse(now, deviceID, user, ErrBadPassword)
	}
	mfaOK := false
	if u.MFASecret != "" {
		if mfa == "" {
			return Token{}, a.refuse(now, deviceID, user, ErrNeedMFA)
		}
		if mfa != mfaCode(u.MFASecret, now) {
			return Token{}, a.refuse(now, deviceID, user, ErrBadMFA)
		}
		mfaOK = true
	}
	lifetime := a.DefaultLifetime
	if a.LifetimePolicy != nil {
		lifetime = a.LifetimePolicy(u, deviceID)
	}
	a.issued++
	if a.Tracer != nil {
		a.Tracer.EmitSpan(obs.Span{
			Time: now, Dur: lifetime, Layer: obs.LayerXAuth,
			Op: "token-issue", Device: deviceID, Detail: user,
		})
	}
	return a.signer.Issue(user, deviceID, u.Priv, mfaOK, now, lifetime), nil
}

// refuse counts and traces one authentication refusal.
func (a *Authority) refuse(now time.Duration, deviceID, user string, err error) error {
	a.refused++
	if a.Tracer != nil {
		a.Tracer.EmitSpan(obs.Span{
			Time: now, Layer: obs.LayerXAuth, Op: "auth-refuse",
			Device: deviceID, Cause: err.Error(), Detail: user,
		})
	}
	return err
}

// Authorize validates a token for an operation requiring minPriv.
// Firmware updates require Advanced + MFA, per the paper's split between
// basic and advanced users.
func (a *Authority) Authorize(t Token, minPriv Privilege, deviceID string, now time.Duration) error {
	if err := a.signer.Verify(t, now, deviceID); err != nil {
		return a.refuse(now, deviceID, t.Subject, err)
	}
	if t.Priv < minPriv {
		return a.refuse(now, deviceID, t.Subject, ErrPrivTooLow)
	}
	if minPriv >= Advanced && !t.MFA {
		return a.refuse(now, deviceID, t.Subject, ErrNeedMFA)
	}
	if a.Tracer != nil {
		a.Tracer.EmitSpan(obs.Span{
			Time: now, Layer: obs.LayerXAuth, Op: "token-verify",
			Device: deviceID, Detail: t.Subject,
		})
	}
	return nil
}
