package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"xlf/internal/netsim"
)

// The NAC policy's cached refusals must read exactly like the fresh
// error the hook used to allocate for every refused packet. The test
// here plays policy programs against both.

// refNAC is the reference policy: the hook before refusals were cached,
// which allocated a fresh *NACError, Dst included, for every denial.
type refNAC struct {
	allowed     map[netsim.Addr]map[netsim.Addr]bool
	alwaysAllow map[netsim.Addr]bool
	blocked     map[netsim.Addr]bool
	denials     uint64
}

func newRefNAC() *refNAC {
	return &refNAC{
		allowed:     make(map[netsim.Addr]map[netsim.Addr]bool),
		alwaysAllow: make(map[netsim.Addr]bool),
		blocked:     make(map[netsim.Addr]bool),
	}
}

func (r *refNAC) allow(src, dst netsim.Addr) {
	if r.allowed[src] == nil {
		r.allowed[src] = make(map[netsim.Addr]bool)
	}
	r.allowed[src][dst] = true
}

func (r *refNAC) hook(pkt *netsim.Packet) *NACError {
	if r.blocked[pkt.Src] {
		r.denials++
		return &NACError{Src: pkt.Src, Dst: pkt.Dst, Quarantined: true}
	}
	if r.alwaysAllow[pkt.Dst] || r.allowed[pkt.Src][pkt.Dst] {
		return nil
	}
	r.denials++
	return &NACError{Src: pkt.Src, Dst: pkt.Dst}
}

// Program alphabet: the first three sources can be enrolled or blocked;
// the last two never are (a spoofed LAN address and an unknown one).
var (
	progSrcs = []netsim.Addr{"lan:cam-1", "lan:bulb-1", "lan:lock-1", "lan:spoof", "lan:ghost"}
	progDsts = []netsim.Addr{"wan:cloud", "wan:cnc", "wan:victim", "wan:dns"}
)

// diffRefusals runs one program, two bytes an op: op%4 picks Allow,
// AllowInfra, Block or a hook call, and the argument byte picks the
// source and destination.
func diffRefusals(t *testing.T, prog []byte) {
	t.Helper()
	p, ref := NewNACPolicy(), newRefNAC()
	hook := p.GatewayHook()
	type lastRefusal struct {
		err    *netsim.BlockedError
		cached bool // the source was enrolled or blocked when refused
	}
	last := make(map[netsim.Addr]lastRefusal)
	for i := 0; i+1 < len(prog); i += 2 {
		arg := int(prog[i+1])
		enrollable, dst := progSrcs[arg%3], progDsts[arg/3%len(progDsts)]
		switch prog[i] % 4 {
		case 0:
			p.Allow(enrollable, dst)
			ref.allow(enrollable, dst)
		case 1:
			p.AllowInfra(dst)
			ref.alwaysAllow[dst] = true
		case 2:
			p.Block(enrollable)
			ref.blocked[enrollable] = true
		case 3:
			src := progSrcs[arg%len(progSrcs)]
			dst := progDsts[arg/len(progSrcs)%len(progDsts)]
			got, want := hook(&netsim.Packet{Src: src, Dst: dst}), ref.hook(&netsim.Packet{Src: src, Dst: dst})
			if want == nil {
				if got != nil {
					t.Fatalf("op %d: %s -> %s refused with %v, reference allows it", i/2, src, dst, got)
				}
				continue
			}
			var blocked *netsim.BlockedError
			var nac *NACError
			if !errors.As(got, &blocked) || !errors.As(got, &nac) {
				t.Fatalf("op %d: %s -> %s refusal %#v is not a BlockedError wrapping a NACError", i/2, src, dst, got)
			}
			if got.Error() != "netsim: outbound blocked: "+want.Error() || nac.Error() != want.Error() {
				t.Fatalf("op %d: refusal reads %q, reference %q", i/2, got, want)
			}
			wantDst := want.Dst
			if want.Quarantined {
				wantDst = "" // the one intended difference
			}
			if nac.Src != want.Src || nac.Dst != wantDst || nac.Quarantined != want.Quarantined {
				t.Fatalf("op %d: refusal %+v, reference %+v", i/2, *nac, *want)
			}
			// A source enrolled or blocked at its previous refusal gets
			// that refusal back while the reason repeats; any other
			// source a fresh one.
			prev := last[src]
			wantReuse := prev.cached && *prev.err.Err.(*NACError) == *nac
			if reused := got == error(prev.err); reused != wantReuse {
				t.Fatalf("op %d: %s's refusal reused=%v, want %v", i/2, src, reused, wantReuse)
			}
			_, enrolled := ref.allowed[src]
			last[src] = lastRefusal{blocked, enrolled || ref.blocked[src]}
		}
		for src := range p.refusals {
			if _, enrolled := ref.allowed[src]; !enrolled && !ref.blocked[src] {
				t.Fatalf("op %d: refusal cache holds %s, neither enrolled nor blocked", i/2, src)
			}
		}
	}
	if p.Denials() != ref.denials {
		t.Fatalf("denials = %d, reference %d", p.Denials(), ref.denials)
	}
}

func TestRefusalsMatchFreshErrors(t *testing.T) {
	directed := [][]byte{
		{},                        // empty program
		{3, 0, 3, 0, 3, 3, 3, 3},  // unknown sources only: nothing cached
		{0, 0, 3, 5, 3, 5, 3, 10}, // enrolled source, repeated then new destination
		{0, 0, 2, 0, 3, 0, 3, 5},  // blocked: one refusal for every destination
		{0, 0, 3, 5, 2, 0, 3, 5},  // unenrolled refusal, then quarantined
		{2, 1, 3, 1, 0, 1, 3, 6},  // blocked before it is enrolled
		{1, 9, 3, 15, 3, 18},      // infrastructure destination allowed for all
	}
	for i, p := range directed {
		t.Run(fmt.Sprintf("directed%d", i), func(t *testing.T) { diffRefusals(t, p) })
	}
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 300; n++ {
		p := make([]byte, rng.Intn(120)*2)
		rng.Read(p)
		// Mostly hook calls, so refusals repeat.
		for i := 0; i < len(p); i += 2 {
			if p[i]%8 > 3 {
				p[i] = 3
			}
		}
		diffRefusals(t, p)
	}
}
