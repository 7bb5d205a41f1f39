package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The per-device signal ring and per-layer max-deques must be
// observationally identical to the rescanning correlation they replaced:
// the same alerts field for field (Confidence bit for bit), the same
// containment calls in the same order, the same counters and the same
// token lifetimes. The tests here run signal programs against both.

// refCore is the reference implementation: the Core before the ring,
// which appended each signal to a per-device slice, cut the window's
// prefix, trimmed it to maxHist and then rescanned the whole history,
// building a layer set, on every Ingest. Tracing and the observers are
// left out; the counters are plain fields.
type refCore struct {
	cfg     Config
	contain Containment

	signals   map[string][]Signal // per device
	alerts    []Alert
	lastA     map[string]time.Duration
	contained map[string]bool
	stats     CoreStats
}

func newRefCore(cfg Config, contain Containment) *refCore {
	return &refCore{
		cfg:       cfg,
		contain:   contain,
		signals:   make(map[string][]Signal),
		lastA:     make(map[string]time.Duration),
		contained: make(map[string]bool),
	}
}

func (c *refCore) layerEnabled(l LayerName) bool {
	if len(c.cfg.EnabledLayers) == 0 {
		return true
	}
	for _, e := range c.cfg.EnabledLayers {
		if e == l {
			return true
		}
	}
	return false
}

func (c *refCore) Ingest(sig Signal) *Alert {
	if !c.layerEnabled(sig.Layer) {
		c.stats.Dropped++
		return nil
	}
	c.stats.Ingested++
	if sig.DeviceID == "" {
		return nil
	}
	hist := append(c.signals[sig.DeviceID], sig)
	// Evict signals outside the window.
	cut := 0
	for cut < len(hist) && hist[cut].Time < sig.Time-c.cfg.Window {
		cut++
	}
	hist = hist[cut:]
	const maxHist = 2048
	if len(hist) > maxHist {
		hist = hist[len(hist)-maxHist:]
	}
	c.signals[sig.DeviceID] = hist

	return c.evaluate(sig.DeviceID, sig.Time)
}

func (c *refCore) evaluate(deviceID string, now time.Duration) *Alert {
	hist := c.signals[deviceID]
	if len(hist) == 0 {
		return nil
	}
	layerSet := make(map[LayerName]struct{})
	var maxScore float64
	for _, s := range hist {
		layerSet[s.Layer] = struct{}{}
		if s.Score > maxScore {
			maxScore = s.Score
		}
	}
	conf := maxScore * (1 + c.cfg.LayerBonus*float64(len(layerSet)-1))
	if conf > 1 {
		conf = 1
	}
	if conf < c.cfg.AlertThreshold {
		return nil
	}
	escalation := conf >= c.cfg.ContainThreshold && !c.contained[deviceID]
	if last, ok := c.lastA[deviceID]; ok && now-last < c.cfg.Cooldown && !escalation {
		return nil
	}
	c.lastA[deviceID] = now

	layers := make([]LayerName, 0, len(layerSet))
	for l := range layerSet {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i] < layers[j] })

	sev := SevWarning
	if conf >= c.cfg.ContainThreshold {
		sev = SevCritical
	}
	a := Alert{
		Time:       now,
		DeviceID:   deviceID,
		Severity:   sev,
		Confidence: conf,
		Layers:     layers,
		Evidence:   append([]Signal(nil), hist...),
	}
	if conf >= c.cfg.ContainThreshold {
		a.Action = c.containDevice(deviceID, hist)
		c.contained[deviceID] = true
		if a.Action != "" {
			c.stats.Contained++
		}
	}
	c.stats.Alerts++
	c.alerts = append(c.alerts, a)
	return &c.alerts[len(c.alerts)-1]
}

func (c *refCore) containDevice(deviceID string, evidence []Signal) string {
	for _, s := range evidence {
		if strings.HasPrefix(s.Kind, "rogue-app:") && c.contain.RemoveApp != nil {
			c.contain.RemoveApp(strings.TrimPrefix(s.Kind, "rogue-app:"))
			return "app-removed"
		}
	}
	for _, s := range evidence {
		switch s.Kind {
		case "dpi:mirai-loader", "cc-beacon", "ddos-flood", "firmware-tamper":
			if c.contain.QuarantineDevice != nil {
				c.contain.QuarantineDevice(deviceID)
				if c.contain.RevokeTokens != nil {
					c.contain.RevokeTokens(deviceID)
				}
				return "quarantined"
			}
		}
	}
	if c.contain.BlockDevice != nil {
		c.contain.BlockDevice(deviceID)
		return "blocked"
	}
	return ""
}

func (c *refCore) flaggedDevices() []string {
	var out []string
	for _, a := range c.alerts {
		if !slices.Contains(out, a.DeviceID) {
			out = append(out, a.DeviceID)
		}
	}
	slices.Sort(out)
	return out
}

func (c *refCore) TokenLifetimeFor(deviceID string, base time.Duration, now time.Duration) time.Duration {
	recent := 0
	for _, a := range c.alerts {
		if a.DeviceID == deviceID && now-a.Time <= c.cfg.Window*5 {
			recent++
		}
	}
	switch {
	case recent == 0:
		return base
	case recent == 1:
		return base / 4
	default:
		return base / 16
	}
}

// logContainment returns hooks that append every call to log.
func logContainment(log *[]string) Containment {
	rec := func(op string) func(string) {
		return func(id string) { *log = append(*log, op+":"+id) }
	}
	return Containment{
		BlockDevice:      rec("block"),
		QuarantineDevice: rec("quarantine"),
		RemoveApp:        rec("remove-app"),
		RevokeTokens:     rec("revoke"),
	}
}

// sameSignal compares two signals, scores by bit pattern (NaN included).
func sameSignal(a, b Signal) bool {
	return a.Time == b.Time && a.Layer == b.Layer && a.Source == b.Source &&
		a.DeviceID == b.DeviceID && a.Kind == b.Kind && a.Detail == b.Detail &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

// diffAlert describes the first difference between two alerts, or
// returns "" when they are identical.
func diffAlert(want, got *Alert) string {
	switch {
	case want == nil && got == nil:
		return ""
	case want == nil || got == nil:
		return fmt.Sprintf("alert %v, reference %v", got, want)
	case want.Time != got.Time || want.DeviceID != got.DeviceID || want.Severity != got.Severity || want.Action != got.Action:
		return fmt.Sprintf("alert %s, reference %s", got, want)
	case math.Float64bits(want.Confidence) != math.Float64bits(got.Confidence):
		return fmt.Sprintf("confidence %v (%#x), reference %v (%#x)", got.Confidence,
			math.Float64bits(got.Confidence), want.Confidence, math.Float64bits(want.Confidence))
	case !slices.Equal(want.Layers, got.Layers):
		return fmt.Sprintf("layers %v, reference %v", got.Layers, want.Layers)
	case !slices.EqualFunc(want.Evidence, got.Evidence, sameSignal):
		return fmt.Sprintf("evidence of %d signals, reference %d", len(got.Evidence), len(want.Evidence))
	}
	return ""
}

// diffCore feeds sigs to the Core and the reference under cfg, with
// logging containment hooks when hooks is set and none otherwise, and
// fails at the first divergence in a returned alert, the containment
// calls, the counters or a token lifetime.
func diffCore(t *testing.T, cfg Config, hooks bool, sigs []Signal) {
	t.Helper()
	var refLog, gotLog []string
	ref, got := newRefCore(cfg, Containment{}), New(cfg, Containment{})
	if hooks {
		ref, got = newRefCore(cfg, logContainment(&refLog)), New(cfg, logContainment(&gotLog))
	}
	var stream []Alert
	got.OnAlert = func(a Alert) { stream = append(stream, a) }
	base := time.Hour
	lifetimes := func(dev string, now time.Duration) string {
		for _, at := range []time.Duration{now, now - cfg.Window, now + cfg.Window*5, now + cfg.Window*5 + 1, math.MinInt64, math.MaxInt64} {
			if w, g := ref.TokenLifetimeFor(dev, base, at), got.TokenLifetimeFor(dev, base, at); w != g {
				return fmt.Sprintf("TokenLifetimeFor(%q, now=%d) = %s, reference %s", dev, at, g, w)
			}
		}
		return ""
	}
	for i, s := range sigs {
		want, have := ref.Ingest(s), got.Ingest(s)
		if d := diffAlert(want, have); d != "" {
			t.Fatalf("signal %d %+v: %s", i, s, d)
		}
		if st := got.Stats(); st != ref.stats {
			t.Fatalf("signal %d: Stats() = %+v, reference %+v", i, st, ref.stats)
		}
		if !slices.Equal(refLog, gotLog) {
			t.Fatalf("signal %d: containment calls %v, reference %v", i, gotLog, refLog)
		}
		if d := lifetimes(s.DeviceID, s.Time); d != "" {
			t.Fatalf("signal %d: %s", i, d)
		}
	}
	if len(stream) != len(ref.alerts) {
		t.Fatalf("OnAlert saw %d alerts, reference %d", len(stream), len(ref.alerts))
	}
	for i := range stream {
		if d := diffAlert(&ref.alerts[i], &stream[i]); d != "" {
			t.Fatalf("OnAlert alert %d: %s", i, d)
		}
	}
	if g, w := got.FlaggedDevices(), ref.flaggedDevices(); !slices.Equal(g, w) {
		t.Fatalf("FlaggedDevices() = %v, reference %v", g, w)
	}
	for _, dev := range progDevices {
		for _, s := range sigs {
			if d := lifetimes(dev, s.Time); d != "" {
				t.Fatal(d)
			}
		}
	}
}

var (
	progDevices  = []string{"cam-1", "bulb-1", "lock-1", "plug-1"}
	progWindows  = []time.Duration{5 * time.Millisecond, time.Second, 10 * time.Second, 2 * time.Minute}
	progBonuses  = []float64{0.25, 0, 0.5}
	progCooldown = []time.Duration{time.Minute, time.Millisecond, time.Second}
	progAlert    = []float64{0.6, 0.3, 0.9}
	progContain  = []float64{0.85, 1.01, 0.7}
	progScores   = []float64{0, 0.1, 0.3, 0.45, 0.5, 0.55, 0.6, 0.7, 0.85, 0.9, 0.95, 1, 1.5, -0.5, math.NaN(), math.Copysign(0, -1)}
	progKinds    = []string{"scan", "nac-denial", "dpi:mirai-loader", "rogue-app:x", "cc-beacon", "firmware-tamper", "ddos-flood", "weird"}
)

// progMaxBursts caps the bursts in one program: each is a maxHist-plus
// run of signals, and every Ingest after it costs the reference a
// maxHist rescan.
const progMaxBursts = 2

// decodeProgram turns bytes into a Core configuration and a signal
// stream. Two header bytes pick the configuration:
//   - a: window (a%4, 5 ms to 2 min), LayerBonus ((a>>2)%3, including 0),
//     EnabledLayers (bits 4–6 of a; none set means all layers), no
//     containment hooks (bit 7);
//   - b: Cooldown (b%3), AlertThreshold ((b>>2)%3), ContainThreshold
//     ((b>>4)%3, including alert-only 1.01), device count (1 + b>>6).
//
// Each signal is a triple (x, y, z):
//   - x: device (x%(n+1), where n selects the unattributed ""), layer
//     ((x/5)%3); x >= 240 repeats the signal as a burst above maxHist,
//     1 µs apart;
//   - y: time step (y%8: none, µs, ms, backwards by ms, s, exactly one
//     window, one window and a nanosecond, minutes), scaled by y>>3;
//   - z: score (z%16, including 0, -0, negative, NaN and above 1) and
//     kind (z>>4, including each containment trigger).
func decodeProgram(data []byte) (cfg Config, hooks bool, sigs []Signal) {
	cfg = DefaultConfig()
	if len(data) < 2 {
		return cfg, true, nil
	}
	a, b := data[0], data[1]
	cfg.Window = progWindows[a%4]
	cfg.LayerBonus = progBonuses[(a>>2)%3]
	for i, l := range layerNames {
		if (a>>4)&(1<<i) != 0 {
			cfg.EnabledLayers = append(cfg.EnabledLayers, l)
		}
	}
	cfg.Cooldown = progCooldown[b%3]
	cfg.AlertThreshold = progAlert[(b>>2)%3]
	cfg.ContainThreshold = progContain[(b>>4)%3]
	devs := 1 + int(b>>6)
	hooks = a>>7 == 0

	var now time.Duration
	bursts := 0
	for i := 2; i+2 < len(data); i += 3 {
		x, y, z := data[i], data[i+1], data[i+2]
		scale := time.Duration(y >> 3)
		switch y % 8 {
		case 1:
			now += scale * time.Microsecond
		case 2:
			now += scale * time.Millisecond
		case 3:
			now -= scale * time.Millisecond
		case 4:
			now += scale * time.Second
		case 5:
			now += cfg.Window
		case 6:
			now += cfg.Window + 1
		case 7:
			now += scale * time.Minute
		}
		dev := ""
		if d := int(x) % (devs + 1); d < devs {
			dev = progDevices[d]
		}
		s := Signal{
			Time:     now,
			Layer:    layerNames[(x/5)%3],
			Source:   "prog",
			DeviceID: dev,
			Kind:     progKinds[(z>>4)%8],
			Score:    progScores[z%16],
			Detail:   strconv.Itoa(i),
		}
		n := 1
		if x >= 240 && bursts < progMaxBursts {
			bursts++
			n = maxHist + 1 + int(y%64)
		}
		for j := 0; j < n; j++ {
			sigs = append(sigs, s)
			s.Time += time.Microsecond
		}
		now = s.Time - time.Microsecond
	}
	return cfg, hooks, sigs
}

// burst returns n signals on one device and layer, 1 µs apart from t.
func burst(t time.Duration, n int, layer LayerName, dev string, score float64) []Signal {
	out := make([]Signal, n)
	for i := range out {
		out[i] = Signal{Time: t + time.Duration(i)*time.Microsecond, Layer: layer, Source: "burst",
			DeviceID: dev, Kind: "noise", Score: score, Detail: strconv.Itoa(i)}
	}
	return out
}

// TestCoreMatchesReference drives directed programs covering the cap,
// ties, window expiry, non-monotone and overflowing times, odd scores,
// cooldown against escalation and the configuration knobs, then a
// corpus of random programs.
func TestCoreMatchesReference(t *testing.T) {
	cfg := func(mut func(*Config)) Config {
		c := DefaultConfig()
		mut(&c)
		return c
	}
	s := func(at time.Duration, l LayerName, dev, kind string, score float64) Signal {
		return Signal{Time: at, Layer: l, Source: "directed", DeviceID: dev, Kind: kind, Score: score}
	}
	hour := func(c *Config) { c.Window = time.Hour; c.Cooldown = time.Millisecond }
	escalation := []Signal{
		s(time.Second, Network, "cam-1", "scan", 0.7), s(2*time.Second, Network, "cam-1", "scan", 0.7),
		s(3*time.Second, Network, "cam-1", "cc-beacon", 0.9), s(4*time.Second, Device, "cam-1", "scan", 0.95),
		s(2*time.Minute, Network, "cam-1", "scan", 0.95), s(2*time.Minute, Service, "bulb-1", "rogue-app:x", 0.95),
	}
	directed := []struct {
		name  string
		cfg   Config
		hooks bool
		sigs  []Signal
	}{
		{"cap-evicts-top-scorer", cfg(hour), true, slices.Concat(
			[]Signal{s(0, Network, "cam-1", "scan", 0.9)},
			burst(time.Millisecond, maxHist, Network, "cam-1", 0.3),
			[]Signal{s(time.Second, Device, "cam-1", "weird", 0.5)},
		)},
		{"cap-evicts-a-whole-layer", cfg(hour), true, slices.Concat(
			[]Signal{s(0, Service, "cam-1", "scan", 0.55)},
			burst(time.Millisecond, maxHist-1, Network, "cam-1", 0.55),
			burst(time.Second, 3, Network, "cam-1", 0.55),
		)},
		{"tied-scores", cfg(func(c *Config) { c.Window = 10 * time.Millisecond; c.Cooldown = time.Millisecond }), true, []Signal{
			s(0, Network, "cam-1", "scan", 0.7), s(time.Millisecond, Network, "cam-1", "scan", 0.7),
			s(2*time.Millisecond, Device, "cam-1", "scan", 0.7), s(11*time.Millisecond, Network, "cam-1", "scan", 0.1),
			s(12*time.Millisecond, Network, "cam-1", "scan", 0.1), s(13*time.Millisecond, Network, "cam-1", "scan", 0.1),
		}},
		{"layer-ages-out", cfg(func(c *Config) { c.Window = 10 * time.Second; c.Cooldown = time.Millisecond }), true, []Signal{
			s(0, Device, "cam-1", "firmware-tamper", 0.5), s(5*time.Second, Network, "cam-1", "scan", 0.55),
			s(10*time.Second, Network, "cam-1", "scan", 0.55), s(10*time.Second+1, Network, "cam-1", "scan", 0.55),
		}},
		{"non-monotone-times", cfg(func(c *Config) { c.Window = 10 * time.Second; c.Cooldown = time.Millisecond }), true, []Signal{
			s(10*time.Second, Network, "cam-1", "scan", 0.9), s(30*time.Second, Device, "cam-1", "scan", 0.2),
			s(time.Second, Network, "cam-1", "scan", 0.9), s(35*time.Second, Service, "cam-1", "scan", 0.2),
			s(39*time.Second, Device, "cam-1", "scan", 0.2), s(41*time.Second, Device, "cam-1", "scan", 0.2),
			s(-time.Minute, Service, "cam-1", "scan", 0.65),
		}},
		{"overflowing-window-start", cfg(hour), true, []Signal{
			s(math.MinInt64, Network, "bulb-1", "scan", 0.9), s(0, Network, "cam-1", "scan", 0.9),
			s(math.MinInt64, Network, "cam-1", "scan", 0.9), s(math.MinInt64+1, Device, "cam-1", "scan", 0.9),
			s(time.Second, Service, "cam-1", "scan", 0.9),
		}},
		{"odd-scores", cfg(hour), true, []Signal{
			s(0, Network, "cam-1", "scan", math.NaN()), s(1, Network, "bulb-1", "scan", -0.5),
			s(2, Device, "bulb-1", "scan", math.Copysign(0, -1)), s(3, Service, "lock-1", "scan", 1.5),
			s(4, Device, "cam-1", "scan", 0.6), s(5, Service, "cam-1", "scan", math.NaN()),
			s(6, Network, "bulb-1", "scan", math.Inf(1)), s(7, Network, "plug-1", "scan", math.Inf(-1)),
		}},
		{"cooldown-against-escalation", DefaultConfig(), true, escalation},
		// Alerts at 100s, then 50s (an escalation), 111s, 175s and 300s:
		// the cooldown runs from the last raised alert, not the latest in
		// time, and the fifth alert makes the Core drop one from its
		// alert history.
		{"last-raised-not-latest", DefaultConfig(), true, []Signal{
			s(100*time.Second, Network, "cam-1", "scan", 0.7), s(50*time.Second, Network, "cam-1", "scan", 0.9),
			s(105*time.Second, Network, "cam-1", "scan", 0.7), s(111*time.Second, Network, "cam-1", "scan", 0.7),
			s(175*time.Second, Network, "cam-1", "scan", 0.7), s(-10*time.Second, Device, "cam-1", "scan", 0.95),
			s(300*time.Second, Network, "cam-1", "scan", 0.7),
		}},
		{"escalation-without-hooks", DefaultConfig(), false, escalation},
		{"enabled-layers", cfg(func(c *Config) { c.EnabledLayers = []LayerName{Network, Service} }), true, []Signal{
			s(0, Device, "cam-1", "firmware-tamper", 0.99), s(1, Network, "cam-1", "scan", 0.55),
			s(2, Service, "cam-1", "scan", 0.55), s(3, Device, "cam-1", "scan", 0.99),
		}},
		{"layer-bonus-zero", cfg(func(c *Config) { c.LayerBonus = 0 }), true, []Signal{
			s(0, Device, "cam-1", "scan", 0.55), s(1, Network, "cam-1", "scan", 0.55),
			s(2, Service, "cam-1", "scan", 0.55), s(3, Service, "cam-1", "scan", 0.6),
		}},
		{"unattributed", DefaultConfig(), true, []Signal{
			s(0, Network, "", "ddos-flood", 0.99), s(1, Network, "cam-1", "ddos-flood", 0.99),
		}},
	}
	for _, d := range directed {
		d := d
		t.Run(d.name, func(t *testing.T) { diffCore(t, d.cfg, d.hooks, d.sigs) })
	}

	rng := rand.New(rand.NewSource(14))
	for n := 0; n < 150; n++ {
		p := make([]byte, 2+3*rng.Intn(80))
		rng.Read(p)
		// Most random bytes would select bursts; keep them to one program
		// in five so the corpus stays quick.
		for i := 2; i+2 < len(p); i += 3 {
			if p[i] >= 240 && rng.Intn(5) != 0 {
				p[i] -= 16
			}
		}
		cfg, hooks, sigs := decodeProgram(p)
		diffCore(t, cfg, hooks, sigs)
	}
}

// FuzzCoreIngest is the smoke-fuzz entry wired into scripts/check.sh:
// the fuzzer explores byte-encoded signal programs (decodeProgram) and
// the differential oracle rejects any divergence from the reference.
func FuzzCoreIngest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5, 1, 9, 6, 2, 10})
	f.Add([]byte{3, 0x40, 240, 1, 3, 5, 4, 12, 10, 3, 14})
	f.Add([]byte{0x71, 0x25, 0, 3, 9, 7, 8, 16, 12, 5, 62})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2+3*200 {
			data = data[:2+3*200]
		}
		cfg, hooks, sigs := decodeProgram(data)
		diffCore(t, cfg, hooks, sigs)
	})
}
