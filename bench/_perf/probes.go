package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"xlf"
	"xlf/internal/dpi"
	"xlf/internal/ids"
	"xlf/internal/netsim"
	"xlf/internal/service"
	"xlf/internal/xauth"
)

// boundaries are the layer boundaries the traced run times, each through
// a public hook field or a call the harness makes itself. Each reports
// _us_p50, _us_p99, _calls and _busy_s.
var boundaries = []string{
	"core.nac_check",          // Gateway.OutboundPolicy
	"core.deny_ingest",        // NACPolicy.OnDeny, nested in core.nac_check
	"core.token_policy",       // Authority.LifetimePolicy
	"service.event_monitor",   // Cloud.EventMonitor
	"service.command_monitor", // Cloud.CommandMonitor
	"xauth.authenticate",      // the auth workload's Authenticate calls
	"xauth.handle",            // the auth workload's Proxy.Handle calls
}

// replays are hot operations with no public hook, timed by replaying one
// home's captured traffic after its run. Each reports _us_p50 and _us_p99.
var replays = []string{"ids.process", "dpi.match_plain", "device.firmware_verify"}

// probes times the calls through each boundary of the traced run. A nil
// *probes (the untraced run) wraps and records nothing.
type probes struct {
	durs     map[string][]time.Duration
	replayed bool
}

func newProbes() *probes { return &probes{durs: make(map[string][]time.Duration)} }

func (p *probes) start() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

func (p *probes) stop(name string, t0 time.Time) {
	if p == nil {
		return
	}
	p.durs[name] = append(p.durs[name], time.Since(t0))
}

// wrap times a protected system's public hooks. Each wrapper only
// measures around the call it replaces, so the simulation is unchanged.
func (p *probes) wrap(sys *xlf.System) {
	if p == nil {
		return
	}
	gw, nac, auth, cloud := sys.Home.Gateway, sys.NAC, sys.Authority, sys.Home.Cloud
	if check := gw.OutboundPolicy; check != nil {
		gw.OutboundPolicy = func(pkt *netsim.Packet) error {
			t0 := time.Now()
			err := check(pkt)
			p.stop("core.nac_check", t0)
			return err
		}
	}
	if deny := nac.OnDeny; deny != nil {
		nac.OnDeny = func(pkt *netsim.Packet) {
			t0 := time.Now()
			deny(pkt)
			p.stop("core.deny_ingest", t0)
		}
	}
	if policy := auth.LifetimePolicy; policy != nil {
		auth.LifetimePolicy = func(u xauth.User, deviceID string) time.Duration {
			t0 := time.Now()
			d := policy(u, deviceID)
			p.stop("core.token_policy", t0)
			return d
		}
	}
	if mon := cloud.EventMonitor; mon != nil {
		cloud.EventMonitor = func(ev service.Event) {
			t0 := time.Now()
			mon(ev)
			p.stop("service.event_monitor", t0)
		}
	}
	if mon := cloud.CommandMonitor; mon != nil {
		cloud.CommandMonitor = func(cmd service.Command) {
			t0 := time.Now()
			mon(cmd)
			p.stop("service.command_monitor", t0)
		}
	}
}

// replay feeds a finished home's captured traffic, in time order, through
// a fresh IDS pipeline and DPI rule set, and verifies every device's
// firmware, timing each call. The captured LAN payloads are what the
// system's own DPI tap matched during the run.
func (p *probes) replay(sys *xlf.System) error {
	p.replayed = true
	lan, wan := sys.Home.LANCap.Records(), sys.Home.WANCap.Records()
	recs := append(append([]netsim.PacketRecord(nil), lan...), wan...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	pipe := ids.DefaultPipeline()
	for _, rec := range recs {
		t0 := time.Now()
		pipe.Process(rec)
		p.stop("ids.process", t0)
	}

	rules, err := dpi.NewRuleSet(dpi.IoTMalwareRules())
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for _, rec := range lan {
		if len(rec.Payload) == 0 {
			continue
		}
		t0 := time.Now()
		rules.MatchPlain(rec.Payload)
		p.stop("dpi.match_plain", t0)
	}

	devs := make([]string, 0, len(sys.Home.Devices))
	for id := range sys.Home.Devices {
		devs = append(devs, id)
	}
	sort.Strings(devs)
	// One sweep is a dozen calls; 100 sweeps give the p99 ten samples
	// beyond it.
	for sweep := 0; sweep < 100; sweep++ {
		for _, id := range devs {
			fw := sys.Home.Devices[id].Firmware
			t0 := time.Now()
			fw.Verify()
			p.stop("device.firmware_verify", t0)
		}
	}
	return nil
}

// timing summarises one boundary's calls.
type timing struct {
	p50, p99 time.Duration
	calls    int
	busy     time.Duration
}

func (p *probes) timing(name string) timing {
	ds := append([]time.Duration(nil), p.durs[name]...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	t := timing{p50: quantile(ds, 0.50), p99: quantile(ds, 0.99), calls: len(ds)}
	for _, d := range ds {
		t.busy += d
	}
	return t
}

// quantile is the nearest-rank q-quantile of sorted durations; 0 when
// there are none.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
