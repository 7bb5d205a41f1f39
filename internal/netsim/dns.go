package netsim

import (
	"fmt"
	"time"
)

// DNS in the testbed: an authoritative server on the WAN, a stub resolver
// in the gateway with a cache, and the attack surface the paper calls out
// (§IV-A3): cleartext queries identify devices; cache poisoning redirects
// hard-coded vendor domains.

// DNSRecord maps a name to an address with a TTL.
type DNSRecord struct {
	Name string
	Addr Addr
	TTL  time.Duration
}

// DNSServer is an authoritative resolver on the WAN.
type DNSServer struct {
	Address Addr
	records map[string]DNSRecord
}

var _ Node = (*DNSServer)(nil)

// NewDNSServer creates a server with the given records.
func NewDNSServer(addr Addr, records []DNSRecord) *DNSServer {
	s := &DNSServer{Address: addr, records: make(map[string]DNSRecord)}
	for _, r := range records {
		s.records[r.Name] = r
	}
	return s
}

// Addr implements Node.
func (s *DNSServer) Addr() Addr { return s.Address }

// Handle implements Node: answer DNS queries.
func (s *DNSServer) Handle(net *Network, pkt *Packet) {
	if pkt.Proto != "DNS" && pkt.Proto != "DoT" {
		return
	}
	rec, ok := s.records[pkt.DNSName]
	resp := net.NewPacket(Packet{
		Src: s.Address, Dst: pkt.Src,
		SrcPort: 53, DstPort: pkt.SrcPort,
		Proto: pkt.Proto, Size: 120, DNSName: pkt.DNSName,
		Encrypted: pkt.Proto == "DoT",
		App:       "dns-response",
	})
	if ok {
		resp.Payload = []byte(rec.Addr)
	} else {
		resp.Payload = []byte("NXDOMAIN")
	}
	net.Send(resp)
}

// cacheEntry is a resolver cache line.
type cacheEntry struct {
	addr    Addr
	expires time.Duration
	// poisoned marks entries injected by an off-path attacker; ground
	// truth for the E7 experiment.
	poisoned bool
}

// Resolver is the gateway-resident stub resolver with a cache. Lookups are
// asynchronous: the caller provides a callback.
type Resolver struct {
	Address  Addr
	Upstream Addr
	// Proto selects the transport: "DNS" (cleartext), "DoT" (encrypted to
	// the upstream), or "XLF-DNS" (lightweight-encrypted to the XLF core
	// bridge; see internal/dnsp).
	Proto string

	cache   map[string]cacheEntry
	pending map[string][]func(Addr, error)
	net     *Network

	hits, misses uint64
	poisonedHits uint64
}

var _ Node = (*Resolver)(nil)

// NewResolver creates a resolver node.
func NewResolver(addr, upstream Addr, protocol string) *Resolver {
	return &Resolver{
		Address:  addr,
		Upstream: upstream,
		Proto:    protocol,
		cache:    make(map[string]cacheEntry),
		pending:  make(map[string][]func(Addr, error)),
	}
}

// Addr implements Node.
func (r *Resolver) Addr() Addr { return r.Address }

// Stats returns (cacheHits, upstreamQueries, poisonedAnswersServed).
func (r *Resolver) Stats() (uint64, uint64, uint64) { return r.hits, r.misses, r.poisonedHits }

// Lookup resolves a name, consulting the cache first. The callback fires
// (possibly synchronously on a cache hit) with the address or an error.
func (r *Resolver) Lookup(net *Network, name string, cb func(Addr, error)) {
	if e, ok := r.cache[name]; ok && net.Kernel().Now() < e.expires {
		r.hits++
		if e.poisoned {
			r.poisonedHits++
		}
		cb(e.addr, nil)
		return
	}
	r.net = net
	r.pending[name] = append(r.pending[name], cb)
	if len(r.pending[name]) > 1 {
		return // query already in flight
	}
	r.misses++
	net.Send(net.NewPacket(Packet{
		Src: r.Address, Dst: r.Upstream,
		SrcPort: 5353, DstPort: 53,
		Proto: protoWire(r.Proto), Size: 80, DNSName: name,
		Encrypted: r.Proto != "DNS",
		App:       "dns-query",
	}))
}

// protoWire maps the resolver mode to the on-wire protocol label.
func protoWire(mode string) string {
	if mode == "XLF-DNS" {
		return "DoT" // core bridge re-encrypts upstream as DoT
	}
	return mode
}

// Handle implements Node: receive upstream responses and poison attempts.
func (r *Resolver) Handle(net *Network, pkt *Packet) {
	if pkt.DNSName == "" {
		return
	}
	// Responses with no matching outstanding query are ignored — which is
	// exactly why winning the race against the legitimate answer is enough
	// for an off-path poisoner: the real response arrives second and is
	// discarded here.
	if _, waiting := r.pending[pkt.DNSName]; !waiting {
		return
	}
	isUpstream := pkt.Src == r.Upstream
	if !isUpstream {
		// Off-path spoofed response. Cleartext UDP DNS accepts it (the
		// classic cache-poisoning weakness); encrypted transports reject
		// forgeries that lack the channel.
		if r.Proto != "DNS" {
			return
		}
	}
	addr := Addr(pkt.Payload)
	if string(pkt.Payload) == "NXDOMAIN" {
		r.finish(pkt.DNSName, "", fmt.Errorf("netsim: NXDOMAIN for %q", pkt.DNSName))
		return
	}
	r.cache[pkt.DNSName] = cacheEntry{
		addr:     addr,
		expires:  net.Kernel().Now() + 5*time.Minute,
		poisoned: !isUpstream,
	}
	r.finish(pkt.DNSName, addr, nil)
}

func (r *Resolver) finish(name string, addr Addr, err error) {
	cbs := r.pending[name]
	delete(r.pending, name)
	for _, cb := range cbs {
		cb(addr, err)
	}
}
