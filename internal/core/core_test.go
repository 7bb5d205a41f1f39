package core

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"xlf/internal/netsim"
	"xlf/internal/obs"
)

func sig(t time.Duration, layer LayerName, dev, kind string, score float64) Signal {
	return Signal{Time: t, Layer: layer, Source: "test", DeviceID: dev, Kind: kind, Score: score}
}

func TestSingleWeakSignalNoAlert(t *testing.T) {
	c := New(DefaultConfig(), Containment{})
	if a := c.Ingest(sig(time.Second, Network, "cam-1", "scan", 0.5)); a != nil {
		t.Errorf("weak single-layer signal alerted: %s", a)
	}
	if st := c.Stats(); st.Alerts != 0 {
		t.Errorf("Stats() = %+v, want no alert counted", st)
	}
}

func TestStrongSignalAlerts(t *testing.T) {
	c := New(DefaultConfig(), Containment{})
	a := c.Ingest(sig(time.Second, Network, "cam-1", "scan", 0.9))
	if a == nil {
		t.Fatal("strong signal did not alert")
	}
	if a.Confidence != 0.9 {
		t.Errorf("confidence = %v, want 0.9 (single layer, no bonus)", a.Confidence)
	}
	if len(a.Layers) != 1 || a.Layers[0] != Network {
		t.Errorf("layers = %v", a.Layers)
	}
}

func TestCrossLayerCorroborationBoostsConfidence(t *testing.T) {
	c := New(DefaultConfig(), Containment{})
	// Two medium signals from one layer: no alert (max score 0.55 < 0.6).
	if a := c.Ingest(sig(time.Second, Network, "cam-1", "scan", 0.55)); a != nil {
		t.Fatalf("premature alert: %v", a)
	}
	// A second layer corroborates: 0.55 * 1.25 = 0.6875 >= 0.6.
	a := c.Ingest(sig(2*time.Second, Device, "cam-1", "firmware-tamper", 0.5))
	if a == nil {
		t.Fatal("corroborated evidence did not alert")
	}
	if a.Confidence <= 0.55 {
		t.Errorf("confidence = %v, want boosted above max single score", a.Confidence)
	}
	if len(a.Layers) != 2 {
		t.Errorf("layers = %v, want 2", a.Layers)
	}
	if len(a.Evidence) != 2 {
		t.Errorf("evidence = %d signals, want 2", len(a.Evidence))
	}
}

func TestWindowEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 10 * time.Second
	c := New(cfg, Containment{})
	c.Ingest(sig(time.Second, Network, "cam-1", "scan", 0.55))
	// Far outside the window: the old signal no longer corroborates.
	a := c.Ingest(sig(5*time.Minute, Device, "cam-1", "firmware-tamper", 0.5))
	if a != nil {
		t.Errorf("stale evidence corroborated: %s", a)
	}
}

func TestCooldownSuppressesDuplicates(t *testing.T) {
	c := New(DefaultConfig(), Containment{})
	if a := c.Ingest(sig(time.Second, Network, "cam-1", "scan", 0.95)); a == nil {
		t.Fatal("first alert missing")
	}
	if a := c.Ingest(sig(2*time.Second, Network, "cam-1", "scan", 0.95)); a != nil {
		t.Error("duplicate alert within cooldown")
	}
	if a := c.Ingest(sig(5*time.Minute, Network, "cam-1", "scan", 0.95)); a == nil {
		t.Error("alert after cooldown missing")
	}
}

func TestContainmentActions(t *testing.T) {
	var blocked, quarantined, revoked []string
	var removedApps []string
	contain := Containment{
		BlockDevice:      func(id string) { blocked = append(blocked, id) },
		QuarantineDevice: func(id string) { quarantined = append(quarantined, id) },
		RemoveApp:        func(id string) { removedApps = append(removedApps, id) },
		RevokeTokens:     func(id string) { revoked = append(revoked, id) },
	}
	c := New(DefaultConfig(), contain)

	// Mirai loader evidence => quarantine + token revocation.
	a := c.Ingest(sig(time.Second, Network, "cam-1", "dpi:mirai-loader", 0.95))
	if a == nil || a.Action != "quarantined" {
		t.Fatalf("alert = %v", a)
	}
	if len(quarantined) != 1 || quarantined[0] != "cam-1" || len(revoked) != 1 {
		t.Errorf("quarantined=%v revoked=%v", quarantined, revoked)
	}

	// Rogue app evidence => app removal.
	a = c.Ingest(sig(time.Second, Service, "window-1", "rogue-app:free-wallpaper", 0.95))
	if a == nil || a.Action != "app-removed" {
		t.Fatalf("alert = %v", a)
	}
	if len(removedApps) != 1 || removedApps[0] != "free-wallpaper" {
		t.Errorf("removedApps = %v", removedApps)
	}

	// Generic strong evidence => block.
	a = c.Ingest(sig(time.Second, Device, "bulb-1", "weird", 0.95))
	if a == nil || a.Action != "blocked" {
		t.Fatalf("alert = %v", a)
	}
	if len(blocked) != 1 || blocked[0] != "bulb-1" {
		t.Errorf("blocked = %v", blocked)
	}
}

func TestWarningBelowContainThreshold(t *testing.T) {
	var blocked []string
	c := New(DefaultConfig(), Containment{BlockDevice: func(id string) { blocked = append(blocked, id) }})
	a := c.Ingest(sig(time.Second, Network, "cam-1", "scan", 0.7))
	if a == nil {
		t.Fatal("no alert")
	}
	if a.Severity != SevWarning || a.Action != "" {
		t.Errorf("alert = %s", a)
	}
	if len(blocked) != 0 {
		t.Error("warning triggered containment")
	}
}

func TestLayerAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnabledLayers = []LayerName{Network}
	c := New(cfg, Containment{})
	if a := c.Ingest(sig(time.Second, Device, "cam-1", "firmware-tamper", 0.99)); a != nil {
		t.Error("disabled layer's signal alerted")
	}
	if st := c.Stats(); st.Ingested != 0 || st.Dropped != 1 {
		t.Errorf("stats = %+v", st)
	}
	if a := c.Ingest(sig(time.Second, Network, "cam-1", "scan", 0.99)); a == nil {
		t.Error("enabled layer's signal ignored")
	}
}

// TestUnknownLayerDropped pins that a layer outside the three XLF
// layers is handled like a disabled one: counted as dropped and traced
// as a filter decision, never correlated.
func TestUnknownLayerDropped(t *testing.T) {
	c := New(DefaultConfig(), Containment{})
	c.Tracer = obs.NewTracer(16, nil)
	if a := c.Ingest(sig(time.Second, "radio", "cam-1", "jam", 0.99)); a != nil {
		t.Errorf("unknown layer's signal alerted: %s", a)
	}
	if st := c.Stats(); st.Ingested != 0 || st.Dropped != 1 {
		t.Errorf("stats = %+v", st)
	}
	if spans := c.Tracer.Spans(); len(spans) != 1 || spans[0].Op != "filter" {
		t.Errorf("spans = %+v, want one filter span", spans)
	}
}

// TestIngestReturnsOwnCopy pins that Ingest's alert is the caller's:
// mutating it leaves the alert OnAlert received alone, and later alerts
// do not move it.
func TestIngestReturnsOwnCopy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cooldown = time.Millisecond
	c := New(cfg, Containment{})
	var seen []Alert
	c.OnAlert = func(a Alert) { seen = append(seen, a) }
	a := c.Ingest(sig(time.Second, Network, "cam-1", "scan", 0.7))
	if a == nil {
		t.Fatal("no alert")
	}
	want := *a
	a.Confidence, a.Action, a.DeviceID = 0, "mutated", "other"
	if got := seen[0]; got.Confidence != want.Confidence || got.Action != want.Action || got.DeviceID != want.DeviceID {
		t.Errorf("streamed alert = %s after mutating the returned one, want %s", got, want)
	}
	*a = want
	for i := 0; i < 1000; i++ {
		if c.Ingest(sig(2*time.Second+time.Duration(i)*time.Second, Network, "cam-1", "scan", 0.7)) == nil {
			t.Fatalf("signal %d did not alert", i)
		}
	}
	if a.Time != want.Time || a.Confidence != want.Confidence || a.DeviceID != want.DeviceID || len(a.Evidence) != len(want.Evidence) {
		t.Errorf("returned alert reads %s after 1000 more alerts, want %s", a, want)
	}
}

// TestStatsCounters pins the CoreStats fields (backed by the obs metrics
// registry).
func TestStatsCounters(t *testing.T) {
	c := New(DefaultConfig(), Containment{BlockDevice: func(string) {}})
	c.Ingest(sig(time.Second, Network, "cam-1", "scan", 0.3))     // ingested, no alert
	c.Ingest(sig(2*time.Second, Device, "cam-1", "tamper", 0.99)) // alert + containment
	st := c.Stats()
	want := CoreStats{Ingested: 2, Dropped: 0, Alerts: 1, Contained: 1}
	if st != want {
		t.Errorf("Stats() = %+v, want %+v", st, want)
	}
	snap := c.Metrics().Snapshot()
	byName := make(map[string]uint64)
	for _, cs := range snap.Counters {
		byName[cs.Name] = cs.Value
	}
	if byName["core.ingested"] != 2 || byName["core.alerts"] != 1 || byName["core.contained"] != 1 {
		t.Errorf("registry snapshot = %+v", snap.Counters)
	}
}

func TestIngestHistoryBounded(t *testing.T) {
	// A detector misfiring at line rate must not grow per-device state
	// unboundedly (that would be a DoS on the Core itself).
	cfg := DefaultConfig()
	cfg.Window = time.Hour
	c := New(cfg, Containment{})
	var last *Alert
	for i := 0; i < 10000; i++ {
		if a := c.Ingest(sig(time.Duration(i)*time.Millisecond, Network, "cam-1", "noise", 0.99)); a != nil {
			last = a
		}
	}
	if last == nil {
		t.Fatal("no alert raised")
	}
	if len(last.Evidence) > 2048 {
		t.Errorf("evidence grew to %d signals; history not bounded", len(last.Evidence))
	}
}

// TestCoreStateIsBounded: one device raises 10,000 alerts, each past the
// cooldown and carrying one evidence signal. Alerts leave through
// OnAlert and Ingest's return, so the Core's heap after all of them stays
// within coreHeapSlack of its heap after the first 100.
func TestCoreStateIsBounded(t *testing.T) {
	// Each retained alert would hold its struct, a layer slice and one
	// evidence signal, over 200 bytes: 9,900 of them are about 2 MB.
	const coreHeapSlack = 256 << 10
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	cfg := DefaultConfig()
	c := New(cfg, Containment{})
	var base uint64
	for i := 0; i < 10000; i++ {
		if i == 100 {
			base = heap()
		}
		// Spaced a window apart, each signal evicts the one before it.
		at := time.Duration(i) * (cfg.Window + cfg.Cooldown)
		if c.Ingest(sig(at, Network, "cam-1", "scan", 0.7)) == nil {
			t.Fatalf("signal %d did not alert", i)
		}
	}
	if grown := int64(heap()) - int64(base); grown >= coreHeapSlack {
		t.Errorf("heap grew %d bytes over 9,900 alerts, want < %d: the Core retains alerts", grown, coreHeapSlack)
	}
	if got := c.Stats().Alerts; got != 10000 {
		t.Errorf("Stats().Alerts = %d, want 10000", got)
	}
}

func TestUnattributedSignalsStored(t *testing.T) {
	c := New(DefaultConfig(), Containment{})
	if a := c.Ingest(Signal{Time: time.Second, Layer: Network, Kind: "ddos-flood", Score: 0.9}); a != nil {
		t.Error("unattributed signal raised a device alert")
	}
	if got := c.Stats().Ingested; got != 1 {
		t.Errorf("Ingested = %d, want the unattributed signal counted", got)
	}
}

func TestOnAlertCallbackAndQueries(t *testing.T) {
	c := New(DefaultConfig(), Containment{})
	var seen []Alert
	c.OnAlert = func(a Alert) { seen = append(seen, a) }
	c.Ingest(sig(time.Second, Network, "cam-1", "scan", 0.9))
	c.Ingest(sig(time.Second, Device, "bulb-1", "x", 0.9))
	c.Ingest(sig(time.Second, Device, "plug-1", "x", 0.3)) // ingested, never flagged
	if len(seen) != 2 || seen[0].DeviceID != "cam-1" || seen[1].DeviceID != "bulb-1" {
		t.Fatalf("callback saw %v", seen)
	}
	if got := c.FlaggedDevices(); !slices.Equal(got, []string{"bulb-1", "cam-1"}) {
		t.Errorf("flagged = %v", got)
	}
}

func TestTokenLifetimePolicy(t *testing.T) {
	c := New(DefaultConfig(), Containment{})
	base := time.Hour
	now := 10 * time.Minute
	if got := c.TokenLifetimeFor("clean-1", base, now); got != base {
		t.Errorf("clean device lifetime = %s", got)
	}
	c.Ingest(sig(now, Network, "cam-1", "scan", 0.9))
	if got := c.TokenLifetimeFor("cam-1", base, now); got != base/4 {
		t.Errorf("one-alert lifetime = %s, want %s", got, base/4)
	}
	c.Ingest(sig(now+5*time.Minute, Device, "cam-1", "firmware-tamper", 0.95))
	if got := c.TokenLifetimeFor("cam-1", base, now+5*time.Minute); got != base/16 {
		t.Errorf("multi-alert lifetime = %s, want %s", got, base/16)
	}
}

func TestNACPolicy(t *testing.T) {
	p := NewNACPolicy()
	p.Allow("lan:bulb-1", "wan:hue.example")
	p.AllowInfra("wan:dns")
	hook := p.GatewayHook()

	ok := &netsim.Packet{Src: "lan:bulb-1", Dst: "wan:hue.example"}
	if err := hook(ok); err != nil {
		t.Errorf("enrolled destination denied: %v", err)
	}
	infra := &netsim.Packet{Src: "lan:bulb-1", Dst: "wan:dns"}
	if err := hook(infra); err != nil {
		t.Errorf("infra denied: %v", err)
	}
	bad := &netsim.Packet{Src: "lan:bulb-1", Dst: "wan:cnc"}
	if err := hook(bad); err == nil {
		t.Error("unknown destination allowed")
	}
	p.Block("lan:bulb-1")
	if err := hook(ok); err == nil {
		t.Error("quarantined device allowed out")
	}
	if !p.Blocked("lan:bulb-1") {
		t.Error("Blocked() = false")
	}
	if p.Denials() != 2 {
		t.Errorf("denials = %d, want 2", p.Denials())
	}
	desc := p.Describe()
	if !strings.Contains(desc, "lan:bulb-1") || !strings.Contains(desc, "wan:hue.example") {
		t.Errorf("describe = %q", desc)
	}
}

func TestFigures(t *testing.T) {
	f1 := RenderFigure1()
	for _, want := range []string{"Figure 1", "Service layer", "Network layer", "Device layer"} {
		if !strings.Contains(f1, want) {
			t.Errorf("figure 1 missing %q", want)
		}
	}
	f4 := RenderFigure4()
	for _, want := range []string{"Figure 4", "XLF Core", "Traffic shaping", "Application verification", "gateway"} {
		if !strings.Contains(f4, want) {
			t.Errorf("figure 4 missing %q", want)
		}
	}
	// The figures draw the inventory in list order, so it must be
	// sorted by layer, then name.
	cs := StandardComponents()
	if !slices.IsSortedFunc(cs, func(a, b Component) int {
		if c := strings.Compare(string(a.Layer), string(b.Layer)); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	}) {
		t.Error("component inventory not in layer, name order")
	}
}

func TestAlertString(t *testing.T) {
	a := Alert{Time: time.Second, DeviceID: "cam-1", Severity: SevCritical, Confidence: 0.9, Layers: []LayerName{Device, Network}, Action: "quarantined"}
	s := a.String()
	for _, want := range []string{"cam-1", "0.90", "critical", "device+network", "quarantined"} {
		if !strings.Contains(s, want) {
			t.Errorf("alert string %q missing %q", s, want)
		}
	}
}
