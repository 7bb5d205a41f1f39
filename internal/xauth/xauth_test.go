package xauth

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"xlf/internal/obs"
)

func testAuthority(t *testing.T) *Authority {
	t.Helper()
	a, err := NewAuthority([]byte("test-signing-key"), []User{
		{Name: "alice", Password: "alice-pw", Priv: Advanced, MFASecret: "alice-mfa"},
		{Name: "bob", Password: "bob-pw", Priv: Basic},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTokenIssueVerify(t *testing.T) {
	s, err := NewSigner([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	now := 10 * time.Minute
	tok := s.Issue("alice", "bulb-1", Advanced, true, now, time.Hour)
	if err := s.Verify(tok, now+time.Minute, "bulb-1"); err != nil {
		t.Errorf("valid token rejected: %v", err)
	}
	if err := s.Verify(tok, now+2*time.Hour, "bulb-1"); !errors.Is(err, ErrExpired) {
		t.Errorf("expired token: err = %v, want ErrExpired", err)
	}
	if err := s.Verify(tok, now, "cam-1"); !errors.Is(err, ErrWrongDevice) {
		t.Errorf("wrong device: err = %v, want ErrWrongDevice", err)
	}
	if err := s.Verify(tok, now-time.Hour, "bulb-1"); !errors.Is(err, ErrNotYetValid) {
		t.Errorf("future token: err = %v, want ErrNotYetValid", err)
	}
}

func TestTokenTamperDetected(t *testing.T) {
	s, _ := NewSigner([]byte("k"))
	tok := s.Issue("bob", "", Basic, false, 0, time.Hour)
	tok.Priv = Advanced // privilege escalation attempt
	if err := s.Verify(tok, time.Minute, ""); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered token: err = %v, want ErrBadSignature", err)
	}
	// A different key must also fail.
	s2, _ := NewSigner([]byte("other"))
	good := s.Issue("bob", "", Basic, false, 0, time.Hour)
	if err := s2.Verify(good, time.Minute, ""); !errors.Is(err, ErrBadSignature) {
		t.Errorf("cross-key token: err = %v, want ErrBadSignature", err)
	}
}

// TestRedactHidesSignature: the sanctioned display form must never
// contain the full MAC (that is the point of the secretleak sanitizer).
func TestRedactHidesSignature(t *testing.T) {
	s, _ := NewSigner([]byte("k"))
	tok := s.Issue("alice", "bulb-1", Advanced, true, 0, time.Hour)
	red := Redact(tok)
	if !strings.Contains(red, "alice") {
		t.Errorf("Redact(%v) = %q, want the subject visible", tok, red)
	}
	if strings.Contains(red, string(tok.Sig)) || strings.Contains(red, fmt.Sprintf("%x", tok.Sig)) {
		t.Errorf("Redact leaked raw token material: %q", red)
	}
	if red := Redact(Token{Subject: "x", Priv: Basic}); red != "token(x/basic sig=unsigned)" {
		t.Errorf("unsigned form = %q", red)
	}
}

func TestAuthenticateFlows(t *testing.T) {
	a := testAuthority(t)
	now := time.Hour

	// Wrong password.
	if _, err := a.Authenticate("alice", "nope", "", "", now); !errors.Is(err, ErrBadPassword) {
		t.Errorf("err = %v, want ErrBadPassword", err)
	}
	// MFA required for alice.
	if _, err := a.Authenticate("alice", "alice-pw", "", "", now); !errors.Is(err, ErrNeedMFA) {
		t.Errorf("err = %v, want ErrNeedMFA", err)
	}
	code, err := a.MFACodeFor("alice", now)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := a.Authenticate("alice", "alice-pw", code, "bulb-1", now)
	if err != nil {
		t.Fatal(err)
	}
	if !tok.MFA || tok.Priv != Advanced {
		t.Errorf("token = %+v, want MFA advanced", tok)
	}
	// Stale MFA code (old time step) fails.
	oldCode, _ := a.MFACodeFor("alice", now-10*time.Minute)
	if _, err := a.Authenticate("alice", "alice-pw", oldCode, "", now); !errors.Is(err, ErrBadMFA) {
		t.Errorf("stale MFA: err = %v, want ErrBadMFA", err)
	}
	// Bob has no MFA enrolled: password alone suffices, token unmarked.
	btok, err := a.Authenticate("bob", "bob-pw", "", "", now)
	if err != nil {
		t.Fatal(err)
	}
	if btok.MFA {
		t.Error("bob's token claims MFA")
	}
	// Unknown user.
	if _, err := a.Authenticate("mallory", "x", "", "", now); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("err = %v, want ErrUnknownUser", err)
	}
}

func TestAuthorizeRules(t *testing.T) {
	a := testAuthority(t)
	now := time.Hour
	code, _ := a.MFACodeFor("alice", now)
	advTok, _ := a.Authenticate("alice", "alice-pw", code, "", now)
	basicTok, _ := a.Authenticate("bob", "bob-pw", "", "", now)

	if err := a.Authorize(advTok, Advanced, "", now); err != nil {
		t.Errorf("advanced+MFA refused: %v", err)
	}
	if err := a.Authorize(basicTok, Advanced, "", now); !errors.Is(err, ErrPrivTooLow) {
		t.Errorf("basic doing write: err = %v, want ErrPrivTooLow", err)
	}
	if err := a.Authorize(basicTok, Basic, "", now); err != nil {
		t.Errorf("basic read refused: %v", err)
	}
}

// TestAuthorizeRefusesBadTokens: a token that fails verification is
// refused whatever privilege the operation needs — forged, expired, or
// bound to another device — and each refusal is counted.
func TestAuthorizeRefusesBadTokens(t *testing.T) {
	a := testAuthority(t)
	now := time.Hour
	tok, err := a.Authenticate("bob", "bob-pw", "", "bulb-1", now)
	if err != nil {
		t.Fatal(err)
	}
	forged := tok
	forged.Priv, forged.MFA = Advanced, true // escalation without a fresh signature
	other, _ := NewSigner([]byte("another-signing-key"))
	foreign := other.Issue("bob", "bulb-1", Basic, false, now, time.Hour)

	for _, tc := range []struct {
		name    string
		tok     Token
		minPriv Privilege
		device  string
		at      time.Duration
		want    error
	}{
		{"forged privilege", forged, Advanced, "bulb-1", now, ErrBadSignature},
		{"foreign signer", foreign, Basic, "bulb-1", now, ErrBadSignature},
		{"expired", tok, Basic, "bulb-1", now + a.DefaultLifetime + time.Second, ErrExpired},
		{"wrong device", tok, Basic, "cam-1", now, ErrWrongDevice},
	} {
		_, refusedBefore := a.Stats()
		if err := a.Authorize(tc.tok, tc.minPriv, tc.device, tc.at); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if _, refused := a.Stats(); refused != refusedBefore+1 {
			t.Errorf("%s: refusals %d -> %d, want one more", tc.name, refusedBefore, refused)
		}
	}
	if err := a.Authorize(tok, Basic, "bulb-1", now); err != nil {
		t.Errorf("genuine token refused: %v", err)
	}
}

func TestLifetimePolicyHook(t *testing.T) {
	a := testAuthority(t)
	a.LifetimePolicy = func(u User, dev string) time.Duration {
		if u.Priv == Advanced {
			return 10 * time.Minute // tighter for powerful tokens
		}
		return 2 * time.Hour
	}
	now := time.Hour
	code, _ := a.MFACodeFor("alice", now)
	advTok, _ := a.Authenticate("alice", "alice-pw", code, "", now)
	if got := advTok.ExpiresAt - advTok.IssuedAt; got != 10*time.Minute {
		t.Errorf("advanced lifetime = %s, want 10m", got)
	}
	basicTok, _ := a.Authenticate("bob", "bob-pw", "", "", now)
	if got := basicTok.ExpiresAt - basicTok.IssuedAt; got != 2*time.Hour {
		t.Errorf("basic lifetime = %s, want 2h", got)
	}
}

func TestProxyLANFastPath(t *testing.T) {
	a := testAuthority(t)
	p := NewProxy(a)
	now := time.Hour
	basicTok, _ := a.Authenticate("bob", "bob-pw", "", "", now)

	// First LAN access presents the token: verified locally, cached.
	d1 := p.Handle(AccessRequest{User: "bob", DeviceID: "bulb-1", Origin: FromLAN, Token: &basicTok}, now)
	if !d1.Allowed || d1.AuthenticatedBy != "proxy-sso" {
		t.Fatalf("first LAN access: %s", d1)
	}
	// Second LAN access hits the cache, cheaper than cloud RTT.
	d2 := p.Handle(AccessRequest{User: "bob", DeviceID: "bulb-1", Origin: FromLAN}, now+time.Minute)
	if !d2.Allowed || d2.AuthenticatedBy != "proxy-cache" {
		t.Fatalf("cached LAN access: %s", d2)
	}
	if d2.Latency >= cloudRTT {
		t.Errorf("cache latency %s not below cloud RTT", d2.Latency)
	}
	hits, fills, _ := p.Stats()
	if hits != 1 || fills != 1 {
		t.Errorf("stats hits=%d fills=%d, want 1/1", hits, fills)
	}
}

// TestProxyHandleTracesOneAccessSpan: every Handle emits exactly one
// access span (access-deny when refused) that starts at the request time,
// lasts the decision's latency and carries its cause.
func TestProxyHandleTracesOneAccessSpan(t *testing.T) {
	a := testAuthority(t)
	p := NewProxy(a)
	p.Tracer = obs.NewTracer(64, nil)
	now := time.Hour
	tok, _ := a.Authenticate("bob", "bob-pw", "", "", now)
	for _, req := range []AccessRequest{
		{User: "bob", DeviceID: "bulb-1", Origin: FromLAN, Token: &tok},
		{User: "bob", DeviceID: "bulb-1", Origin: FromLAN},
		{User: "bob", DeviceID: "bulb-1", Origin: FromWAN, Token: &tok},
		{User: "bob", DeviceID: "cam-1", Origin: FromLAN, Write: true},
		{User: "mallory", DeviceID: "cam-1", Origin: FromWAN},
	} {
		before := p.Tracer.Len()
		d := p.Handle(req, now)
		op, cause := "access", d.AuthenticatedBy
		if !d.Allowed {
			op, cause = "access-deny", d.Reason
		}
		var got []obs.Span
		for _, s := range p.Tracer.Spans()[before:] {
			if s.Op == "access" || s.Op == "access-deny" {
				got = append(got, s)
			}
		}
		if len(got) != 1 {
			t.Fatalf("%+v: %d access spans, want 1", req, len(got))
		}
		if s := got[0]; s.Op != op || s.Time != now || s.Dur != d.Latency || s.Cause != cause ||
			s.Device != req.DeviceID || s.Detail != req.User || s.Layer != obs.LayerXAuth {
			t.Errorf("%+v: span %+v, want op %s at %s lasting %s with cause %q", req, s, op, now, d.Latency, cause)
		}
	}
}

func TestProxyDeniesWithoutToken(t *testing.T) {
	a := testAuthority(t)
	p := NewProxy(a)
	d := p.Handle(AccessRequest{User: "bob", Origin: FromLAN}, time.Hour)
	if d.Allowed {
		t.Error("LAN access with no token/cache allowed")
	}
	d = p.Handle(AccessRequest{User: "bob", Origin: FromWAN}, time.Hour)
	if d.Allowed {
		t.Error("WAN access without token allowed")
	}
}

func TestProxyWriteRequiresAdvancedMFA(t *testing.T) {
	a := testAuthority(t)
	p := NewProxy(a)
	now := time.Hour
	basicTok, _ := a.Authenticate("bob", "bob-pw", "", "", now)
	d := p.Handle(AccessRequest{User: "bob", DeviceID: "cam-1", Origin: FromLAN, Write: true, Token: &basicTok}, now)
	if d.Allowed {
		t.Error("basic user permitted a write")
	}
	code, _ := a.MFACodeFor("alice", now)
	advTok, _ := a.Authenticate("alice", "alice-pw", code, "", now)
	d = p.Handle(AccessRequest{User: "alice", DeviceID: "cam-1", Origin: FromLAN, Write: true, Token: &advTok}, now)
	if !d.Allowed {
		t.Errorf("advanced+MFA write denied: %s", d)
	}
}

func TestProxyExpiredCacheEvicted(t *testing.T) {
	a := testAuthority(t)
	a.DefaultLifetime = time.Minute
	p := NewProxy(a)
	now := time.Hour
	tok, _ := a.Authenticate("bob", "bob-pw", "", "", now)
	p.Prime(tok)
	// Way past expiry: cache cannot vouch, and with no fresh token the
	// request is denied.
	d := p.Handle(AccessRequest{User: "bob", Origin: FromLAN}, now+time.Hour)
	if d.Allowed {
		t.Error("expired cached token accepted")
	}
}

func TestProxyWANAlwaysRevalidates(t *testing.T) {
	a := testAuthority(t)
	p := NewProxy(a)
	now := time.Hour
	tok, _ := a.Authenticate("bob", "bob-pw", "", "", now)
	d := p.Handle(AccessRequest{User: "bob", Origin: FromWAN, Token: &tok}, now)
	if !d.Allowed || d.AuthenticatedBy != "cloud-sso+mfa" {
		t.Fatalf("WAN access: %s", d)
	}
	if d.Latency != cloudRTT {
		t.Errorf("WAN latency = %s, want cloud RTT", d.Latency)
	}
}

func TestBaselineLatencyShape(t *testing.T) {
	a := testAuthority(t)
	cfg := BaselineConfig{CloudRTT: 45 * time.Millisecond, DeviceVerify: 30 * time.Millisecond, RedirectRTT: 10 * time.Millisecond}
	b := NewBaseline(a, cfg)
	now := time.Hour
	code, _ := a.MFACodeFor("alice", now)
	advTok, _ := a.Authenticate("alice", "alice-pw", code, "", now)

	read := b.Handle(AccessRequest{User: "alice", Token: &advTok}, now)
	if !read.Allowed || read.Latency != cfg.CloudRTT {
		t.Errorf("baseline read: %s", read)
	}
	write := b.Handle(AccessRequest{User: "alice", Write: true, Token: &advTok}, now)
	if !write.Allowed {
		t.Fatalf("baseline write denied: %s", write)
	}
	if write.Latency != cfg.CloudRTT+cfg.RedirectRTT+cfg.DeviceVerify {
		t.Errorf("baseline write latency = %s", write.Latency)
	}

	// The XLF proxy LAN fast path beats the baseline read path.
	p := NewProxy(a)
	p.Prime(advTok)
	d := p.Handle(AccessRequest{User: "alice", Origin: FromLAN}, now)
	if !d.Allowed || d.Latency >= read.Latency {
		t.Errorf("proxy LAN (%s) not faster than baseline cloud (%s)", d.Latency, read.Latency)
	}
}

func TestNewAuthorityValidation(t *testing.T) {
	if _, err := NewAuthority(nil, nil); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := NewAuthority([]byte("k"), []User{{Name: ""}}); err == nil {
		t.Error("empty user name accepted")
	}
	if _, err := NewAuthority([]byte("k"), []User{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Error("duplicate user accepted")
	}
}
