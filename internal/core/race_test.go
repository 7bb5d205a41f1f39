package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xlf/internal/netsim"
	"xlf/internal/obs"
)

// TestNACPolicyConcurrentEvaluation hammers one policy from many
// goroutines at once — gateway-hook evaluation racing against policy
// mutation, containment and report rendering. Run under
// `go test -race` it is the concurrency smoke test for the Core's
// constrained-access function; without -race it still checks that the
// denial counter matches the denials the hooks actually reported.
func TestNACPolicyConcurrentEvaluation(t *testing.T) {
	const (
		workers  = 8
		packets  = 200
		devices  = 4
		toggles  = 50
		infra    = netsim.Addr("dns.lan")
		unlisted = netsim.Addr("evil.wan")
	)

	p := NewNACPolicy()
	var observed atomic.Uint64
	p.OnDeny = func(*netsim.Packet) { observed.Add(1) }
	p.AllowInfra(infra)
	dev := func(i int) netsim.Addr { return netsim.Addr(fmt.Sprintf("dev%d.lan", i)) }
	vendor := func(i int) netsim.Addr { return netsim.Addr(fmt.Sprintf("vendor%d.wan", i)) }
	for i := 0; i < devices; i++ {
		p.Allow(dev(i), vendor(i))
	}
	hook := p.GatewayHook()

	var denied atomic.Uint64
	var wg sync.WaitGroup

	// Traffic workers: allowed, infra and unlisted destinations.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < packets; i++ {
				src := dev((w + i) % devices)
				var dst netsim.Addr
				switch i % 3 {
				case 0:
					dst = vendor((w + i) % devices)
				case 1:
					dst = infra
				default:
					dst = unlisted
				}
				if err := hook(&netsim.Packet{Src: src, Dst: dst}); err != nil {
					denied.Add(1)
				}
			}
		}(w)
	}

	// Mutators: enrolment changes and containment while traffic is in
	// flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < toggles; i++ {
			d := dev(i % devices)
			p.Allow(d, netsim.Addr(fmt.Sprintf("extra%d.wan", i)))
			if i == toggles/2 {
				p.Block(d)
			}
			_ = p.Blocked(d)
		}
	}()

	// Readers: reporting paths race with evaluation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < toggles; i++ {
			_ = p.Describe()
			_ = p.Denials()
		}
	}()

	wg.Wait()

	if got, want := p.Denials(), denied.Load(); got != want {
		t.Errorf("policy counted %d denials, hooks returned %d errors", got, want)
	}
	// Quarantine denials skip OnDeny, so observed <= total denials.
	if obs := observed.Load(); obs > denied.Load() {
		t.Errorf("OnDeny fired %d times, more than %d total denials", obs, denied.Load())
	}
	if d := dev(toggles / 2 % devices); !p.Blocked(d) {
		t.Errorf("%s not quarantined after Block", d)
	}
}

// TestNACPolicyConcurrentDenialsTraced is the tracer-enabled variant:
// gateway hooks deny from many goroutines while each denial emits a span
// and a reader drains the ring buffer. Under -race this is the smoke test
// for the observability substrate on the NAC hot path; without -race it
// still checks the span count matches the denials.
func TestNACPolicyConcurrentDenialsTraced(t *testing.T) {
	const (
		workers = 8
		packets = 200
	)
	p := NewNACPolicy()
	var now atomic.Int64
	tr := obs.NewTracer(1<<12, func() time.Duration {
		return time.Duration(now.Add(int64(time.Millisecond)))
	})
	p.Tracer = tr
	hook := p.GatewayHook()

	var denied atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < packets; i++ {
				pkt := &netsim.Packet{
					Src: netsim.Addr(fmt.Sprintf("lan:dev%d", w)),
					Dst: netsim.Addr("wan:unlisted"),
				}
				if err := hook(pkt); err != nil {
					denied.Add(1)
				}
			}
		}(w)
	}
	// Reader: snapshotting the ring races with emission.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = tr.Spans()
		}
	}()
	wg.Wait()

	if got, want := denied.Load(), uint64(workers*packets); got != want {
		t.Fatalf("denied %d packets, want %d (all unenrolled)", got, want)
	}
	spans := tr.Spans()
	if uint64(len(spans))+tr.Evicted() != denied.Load() {
		t.Errorf("tracer holds %d spans + %d evicted, want %d denial spans",
			len(spans), tr.Evicted(), denied.Load())
	}
	for _, s := range spans {
		if s.Layer != obs.LayerCore || s.Op != "nac-deny" || s.Cause != "unenrolled" {
			t.Fatalf("unexpected span %+v", s)
		}
	}
}
