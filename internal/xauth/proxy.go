package xauth

import (
	"fmt"
	"time"

	"xlf/internal/obs"
)

// Origin classifies where an access request entered the home: the paper
// proposes "to distinguish access requests from LAN and WAN to enforce
// different levels of authentication" (§IV-A1).
type Origin int

// Request origins.
const (
	FromLAN Origin = iota + 1
	FromWAN
)

func (o Origin) String() string {
	if o == FromLAN {
		return "LAN"
	}
	return "WAN"
}

// AccessRequest is a user request for a device operation.
type AccessRequest struct {
	User     string
	DeviceID string
	Origin   Origin
	// Write marks configuration/firmware operations (Advanced only).
	Write bool
	// Token accompanies WAN requests and re-used LAN sessions.
	Token *Token
}

// Decision is the proxy's answer with provenance for the XLF Core.
type Decision struct {
	Allowed bool
	Reason  string
	// AuthenticatedBy names who vouched: "proxy-cache", "proxy-sso",
	// "cloud-sso+mfa".
	AuthenticatedBy string
	// Latency is the modeled authentication latency this decision cost
	// (proxy cache hits are cheap; cloud roundtrips are not).
	Latency time.Duration
}

// The delegation path's latency model matches the testbed's link model:
// sub-millisecond local work, ~45 ms cloud round trips.
const (
	// cacheLatency is a local table lookup on the gateway.
	cacheLatency = 200 * time.Microsecond
	// verifyLatency is HMAC verification on the gateway-class CPU.
	verifyLatency = 800 * time.Microsecond
	// cloudRTT is a round trip to the cloud authority.
	cloudRTT = 45 * time.Millisecond
)

// Proxy is the XLF delegation proxy (gateway-resident): it caches SSO
// tokens from the cloud provider, performs SSO verification and timestamp
// validation locally, and serves processed data to basic users, so that
// IoT devices never validate tokens themselves.
type Proxy struct {
	authority *Authority
	cache     map[string]Token // user -> cached token

	// Tracer, when set, receives an xauth-layer span per access decision
	// and cache eviction.
	Tracer *obs.Tracer

	hits, fills, denials uint64
}

// NewProxy builds a delegation proxy in front of an authority.
func NewProxy(a *Authority) *Proxy {
	return &Proxy{authority: a, cache: make(map[string]Token)}
}

// Stats returns (cacheHits, cacheFills, denials).
func (p *Proxy) Stats() (uint64, uint64, uint64) { return p.hits, p.fills, p.denials }

// Evict drops a user's cached token (Core-initiated revocation). The
// span is timestamped by the tracer's bound simulation clock, since
// revocations arrive from the Core without a request time.
func (p *Proxy) Evict(user string) {
	if p.Tracer != nil {
		cause := "no-session"
		if _, ok := p.cache[user]; ok {
			cause = "revoked"
		}
		p.Tracer.Emit(obs.LayerXAuth, "token-evict", "", cause)
	}
	delete(p.cache, user)
}

// Handle processes an access request per the XLF policy:
//
//   - LAN + cached valid token: authenticated locally (fast path).
//   - LAN + presented token: local SSO verification (no cloud).
//   - WAN: always re-validated against the cloud with SSO+MFA semantics.
//   - Write operations require Advanced privilege with MFA regardless of
//     origin.
func (p *Proxy) Handle(req AccessRequest, now time.Duration) Decision {
	d := p.handle(req, now)
	if p.Tracer != nil {
		s := obs.Span{Time: now, Layer: obs.LayerXAuth, Op: "access",
			Device: req.DeviceID, Cause: d.AuthenticatedBy, Detail: req.User}
		if !d.Allowed {
			s.Op, s.Cause = "access-deny", d.Reason
		}
		if d.Latency > 0 {
			s.Dur = d.Latency
		}
		p.Tracer.EmitSpan(s)
	}
	return d
}

func (p *Proxy) handle(req AccessRequest, now time.Duration) Decision {
	minPriv := Basic
	if req.Write {
		minPriv = Advanced
	}

	if req.Origin == FromLAN {
		if t, ok := p.cache[req.User]; ok {
			if err := p.authority.Signer().Verify(t, now, req.DeviceID); err == nil {
				if d, ok := p.checkPriv(t, minPriv); !ok {
					return d
				}
				p.hits++
				return Decision{Allowed: true, AuthenticatedBy: "proxy-cache", Latency: cacheLatency, Reason: "cached token valid"}
			}
			p.Evict(req.User)
		}
		if req.Token != nil {
			if err := p.authority.Signer().Verify(*req.Token, now, req.DeviceID); err != nil {
				p.denials++
				return Decision{Allowed: false, Reason: err.Error(), Latency: verifyLatency}
			}
			if d, ok := p.checkPriv(*req.Token, minPriv); !ok {
				return d
			}
			p.cache[req.User] = *req.Token
			p.fills++
			return Decision{Allowed: true, AuthenticatedBy: "proxy-sso", Latency: verifyLatency, Reason: "token verified locally"}
		}
		p.denials++
		return Decision{Allowed: false, Reason: "no token and no cached session", Latency: cacheLatency}
	}

	// WAN path: the cloud re-validates with full SSO+MFA semantics.
	if req.Token == nil {
		p.denials++
		return Decision{Allowed: false, Reason: "WAN request without token", Latency: cloudRTT}
	}
	if err := p.authority.Authorize(*req.Token, minPriv, req.DeviceID, now); err != nil {
		p.denials++
		return Decision{Allowed: false, Reason: err.Error(), Latency: cloudRTT}
	}
	p.cache[req.User] = *req.Token
	p.fills++
	return Decision{Allowed: true, AuthenticatedBy: "cloud-sso+mfa", Latency: cloudRTT, Reason: "cloud validated"}
}

func (p *Proxy) checkPriv(t Token, minPriv Privilege) (Decision, bool) {
	if t.Priv < minPriv {
		p.denials++
		return Decision{Allowed: false, Reason: ErrPrivTooLow.Error(), Latency: verifyLatency}, false
	}
	if minPriv >= Advanced && !t.MFA {
		p.denials++
		return Decision{Allowed: false, Reason: ErrNeedMFA.Error(), Latency: verifyLatency}, false
	}
	return Decision{}, true
}

// BaselineConfig models the Barreto et al. scheme for comparison:
// basic-user requests always round-trip to the cloud; advanced users are
// redirected to the device, which validates SSO itself on its constrained
// CPU.
type BaselineConfig struct {
	CloudRTT time.Duration
	// DeviceVerify is SSO verification time on the device's own CPU
	// (large for Class-1 hardware; derived from the device cost model).
	DeviceVerify time.Duration
	// RedirectRTT is the extra redirect hop of the baseline's advanced
	// mode.
	RedirectRTT time.Duration
}

// Baseline implements the comparison scheme.
type Baseline struct {
	authority *Authority
	cfg       BaselineConfig
}

// NewBaseline builds the Barreto-style baseline against the same
// authority.
func NewBaseline(a *Authority, cfg BaselineConfig) *Baseline {
	return &Baseline{authority: a, cfg: cfg}
}

// Handle processes a request under baseline rules.
func (b *Baseline) Handle(req AccessRequest, now time.Duration) Decision {
	if req.Token == nil {
		return Decision{Allowed: false, Reason: "no token", Latency: b.cfg.CloudRTT}
	}
	if !req.Write {
		// Basic path: cloud processes and returns data.
		if err := b.authority.Authorize(*req.Token, Basic, req.DeviceID, now); err != nil {
			return Decision{Allowed: false, Reason: err.Error(), Latency: b.cfg.CloudRTT}
		}
		return Decision{Allowed: true, AuthenticatedBy: "cloud", Latency: b.cfg.CloudRTT, Reason: "cloud processed"}
	}
	// Advanced path: initial cloud auth, redirect, then on-device SSO.
	if err := b.authority.Authorize(*req.Token, Advanced, req.DeviceID, now); err != nil {
		return Decision{Allowed: false, Reason: err.Error(), Latency: b.cfg.CloudRTT}
	}
	lat := b.cfg.CloudRTT + b.cfg.RedirectRTT + b.cfg.DeviceVerify
	return Decision{Allowed: true, AuthenticatedBy: "device-sso", Latency: lat, Reason: "device validated"}
}

// String renders a decision for logs.
func (d Decision) String() string {
	verdict := "DENY"
	if d.Allowed {
		verdict = "ALLOW"
	}
	return fmt.Sprintf("%s by=%s lat=%s (%s)", verdict, d.AuthenticatedBy, d.Latency, d.Reason)
}
