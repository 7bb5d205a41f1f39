// Package core implements the XLF Core (§IV-D): the hub that connects the
// device, network and service layers. It ingests per-layer signals,
// correlates them per entity inside a sliding window (multi-layer
// corroboration raises confidence — the paper's central claim), raises
// alerts with full provenance, and drives containment (NAC blocks, app
// removal, device quarantine) and the correlation-driven authentication
// token lifetime policy.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"xlf/internal/obs"
)

// LayerName identifies the producing layer of a signal.
type LayerName string

// XLF layers.
const (
	Device  LayerName = "device"
	Network LayerName = "network"
	Service LayerName = "service"
)

// Signal is one observation handed to the Core by a layer function.
type Signal struct {
	Time     time.Duration
	Layer    LayerName
	Source   string // detector/function name ("ids:scan", "behavior:dfa", ...)
	DeviceID string // affected entity; "" when unattributed
	Kind     string // normalized kind ("scan", "illegal-transition", ...)
	Score    float64
	Detail   string
}

// Severity grades alerts.
type Severity int

// Alert severities.
const (
	SevInfo Severity = iota + 1
	SevWarning
	SevCritical
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevCritical:
		return "critical"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Alert is a correlated detection with provenance.
type Alert struct {
	Time       time.Duration
	DeviceID   string
	Severity   Severity
	Confidence float64
	// Layers lists the distinct layers contributing evidence.
	Layers []LayerName
	// Evidence carries the correlated signals.
	Evidence []Signal
	// Action records the containment the Core took ("", "blocked",
	// "quarantined", "app-removed").
	Action string
}

func (a Alert) String() string {
	ls := make([]string, len(a.Layers))
	for i, l := range a.Layers {
		ls[i] = string(l)
	}
	return fmt.Sprintf("[%s] %s conf=%.2f sev=%s layers=%s action=%q (%d signals)",
		a.Time, a.DeviceID, a.Confidence, a.Severity, strings.Join(ls, "+"), a.Action, len(a.Evidence))
}

// Containment is the set of enforcement hooks the Core can pull. Each hook
// is optional; the testbed installs the real ones.
type Containment struct {
	// BlockDevice cuts a device's WAN access (gateway NAC).
	BlockDevice func(deviceID string)
	// QuarantineDevice isolates a device entirely.
	QuarantineDevice func(deviceID string)
	// RemoveApp uninstalls a service-layer application.
	RemoveApp func(appID string)
	// RevokeTokens evicts cached auth tokens tied to a device's users.
	RevokeTokens func(deviceID string)
}

// Config tunes the correlation engine.
type Config struct {
	// Window is the correlation window (signals older than Window before
	// the newest signal for an entity are not corroborating evidence).
	Window time.Duration
	// AlertThreshold is the minimum confidence to raise an alert.
	AlertThreshold float64
	// ContainThreshold is the minimum confidence to act.
	ContainThreshold float64
	// LayerBonus is the confidence multiplier per extra corroborating
	// layer (the cross-layer dividend; ablated in E1).
	LayerBonus float64
	// EnabledLayers restricts which layers' signals are considered; empty
	// means all. Used by the single-layer ablations.
	EnabledLayers []LayerName
	// Cooldown suppresses duplicate alerts per device.
	Cooldown time.Duration
}

// DefaultConfig returns the standard gateway deployment tuning.
func DefaultConfig() Config {
	return Config{
		Window:           2 * time.Minute,
		AlertThreshold:   0.6,
		ContainThreshold: 0.85,
		LayerBonus:       0.25,
		Cooldown:         time.Minute,
	}
}

// Core is the cross-layer correlation engine.
type Core struct {
	cfg     Config
	contain Containment

	devs    map[string]*devState
	enabled [numLayers]bool

	// OnAlert, when set, observes every raised alert. The Core keeps no
	// list of its alerts: this stream and the alert Ingest returns are
	// the only places an alert's provenance appears.
	OnAlert func(Alert)

	// Tracer, when set, receives core-layer spans for every ingest,
	// alert and containment decision. Nil (the default) disables tracing
	// at the cost of one branch per hot-path operation.
	Tracer *obs.Tracer

	// Detections, when set, is notified of every raised alert so
	// injected attacks can be matched to their first detection (the
	// telemetry pipeline's latency SLO). Nil disables at one branch.
	Detections *obs.DetectionTracker

	// Recorder, when set, receives an alert trigger for every raised
	// alert, arming the anomaly flight recorder's next flush. Nil
	// disables at one branch.
	Recorder *obs.FlightRecorder

	reg        *obs.Registry
	cIngested  *obs.Counter
	cDropped   *obs.Counter
	cAlerts    *obs.Counter
	cContained *obs.Counter
}

// New creates a Core.
func New(cfg Config, contain Containment) *Core {
	if cfg.Window <= 0 {
		cfg.Window = DefaultConfig().Window
	}
	if cfg.AlertThreshold <= 0 {
		cfg.AlertThreshold = DefaultConfig().AlertThreshold
	}
	if cfg.ContainThreshold <= 0 {
		cfg.ContainThreshold = DefaultConfig().ContainThreshold
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultConfig().Cooldown
	}
	reg := obs.NewRegistry()
	c := &Core{
		cfg:        cfg,
		contain:    contain,
		devs:       make(map[string]*devState),
		reg:        reg,
		cIngested:  reg.Counter("core.ingested"),
		cDropped:   reg.Counter("core.dropped"),
		cAlerts:    reg.Counter("core.alerts"),
		cContained: reg.Counter("core.contained"),
	}
	for i, l := range layerNames {
		c.enabled[i] = len(cfg.EnabledLayers) == 0 || slices.Contains(cfg.EnabledLayers, l)
	}
	return c
}

// CoreStats is a snapshot of the Core's lifetime counters, read from the
// obs metrics registry backing them.
type CoreStats struct {
	// Ingested counts signals accepted into the correlation window.
	Ingested uint64
	// Dropped counts signals filtered out by the layer ablation.
	Dropped uint64
	// Alerts counts alerts raised.
	Alerts uint64
	// Contained counts alerts that executed a containment action.
	Contained uint64
}

// Stats returns the Core's lifetime counters.
func (c *Core) Stats() CoreStats {
	return CoreStats{
		Ingested:  c.cIngested.Value(),
		Dropped:   c.cDropped.Value(),
		Alerts:    c.cAlerts.Value(),
		Contained: c.cContained.Value(),
	}
}

// Metrics exposes the runtime metrics registry backing the Core's
// counters, for snapshotting alongside trace exports.
func (c *Core) Metrics() *obs.Registry { return c.reg }

// Ingest feeds one signal into the correlation engine, returning the alert
// it raised, if any. This is the per-signal hot path: O(1) amortised and,
// unless it alerts, allocation-free once the device's window has grown to
// its peak size. A signal whose layer is disabled by the ablation filter,
// or is not one of the three XLF layers, is counted as dropped. An
// unattributed signal is counted and traced but correlates with nothing.
//
// The returned alert is the caller's own copy; its Layers and Evidence
// share backing arrays with the alert OnAlert received.
//
//xlf:hotpath
func (c *Core) Ingest(sig Signal) *Alert {
	li := layerIndex(sig.Layer)
	if li < 0 || !c.enabled[li] {
		c.cDropped.Inc()
		if c.Tracer != nil {
			c.Tracer.EmitSpan(obs.Span{
				Time: sig.Time, Layer: obs.LayerCore, Op: "filter",
				Device: sig.DeviceID, Cause: sig.Kind, Detail: sig.Source,
			})
		}
		return nil
	}
	c.cIngested.Inc()
	if c.Tracer != nil {
		c.Tracer.EmitSpan(obs.Span{
			Time: sig.Time, Layer: obs.LayerCore, Op: "ingest",
			Device: sig.DeviceID, Cause: sig.Kind, Detail: sig.Source,
		})
	}
	if sig.DeviceID == "" {
		return nil
	}
	d := c.devs[sig.DeviceID]
	if d == nil {
		d = new(devState) //xlf:allow-hotpath once per device, on its first signal
		c.devs[sig.DeviceID] = d
	}
	d.push(sig, li, c.cfg.Window)
	return c.evaluate(sig.DeviceID, d, sig.Time)
}

// evaluate computes the device's correlated confidence — the window's
// peak score times the bonus for each extra corroborating layer — and
// raises an alert when warranted.
//
//xlf:hotpath
func (c *Core) evaluate(deviceID string, d *devState, now time.Duration) *Alert {
	if d.sigs.n == 0 {
		return nil
	}
	maxScore, layers := d.peakScore()
	conf := maxScore * (1 + c.cfg.LayerBonus*float64(layers-1))
	if conf > 1 {
		conf = 1
	}
	if conf < c.cfg.AlertThreshold {
		return nil
	}
	// Cooldown suppresses repeats — but never the first escalation to
	// containment level on a device whose prior alerts stayed below it.
	escalation := conf >= c.cfg.ContainThreshold && !d.contained
	if d.nAlerts > 0 && now-d.lastAlert < c.cfg.Cooldown && !escalation {
		return nil
	}
	return c.raise(deviceID, d, now, conf) //xlf:allow-hotpath raising an alert copies its provenance; non-alerting signals return above
}

// raise builds an alert from the device's current window, notes its time
// in the device's state, runs containment when conf reaches
// ContainThreshold, and notifies the observers.
func (c *Core) raise(deviceID string, d *devState, now time.Duration, conf float64) *Alert {
	d.recordAlert(now)

	// The peak deques are non-empty exactly for the layers with retained
	// signals; walking them in slot order yields the layers sorted.
	layers := make([]LayerName, 0, numLayers)
	for i := range d.peaks {
		if d.peaks[i].n > 0 {
			layers = append(layers, layerNames[i])
		}
	}
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
		Evidence:   d.sigs.appendTo(make([]Signal, 0, d.sigs.n)),
	}

	if conf >= c.cfg.ContainThreshold {
		a.Action = c.containDevice(deviceID, a.Evidence)
		// Whether or not an enforcement hook was installed, containment
		// has been attempted: later repeats fall back under the cooldown.
		d.contained = true
		if a.Action != "" {
			c.cContained.Inc()
			if c.Tracer != nil {
				c.Tracer.EmitSpan(obs.Span{
					Time: now, Layer: obs.LayerCore, Op: "contain",
					Device: deviceID, Cause: a.Action,
				})
			}
		}
	}
	c.cAlerts.Inc()
	c.Detections.Observe(now, deviceID)
	c.Recorder.Trigger(now, obs.TriggerAlert)
	if c.Tracer != nil {
		c.Tracer.EmitSpan(obs.Span{
			Time: now, Layer: obs.LayerCore, Op: "alert",
			Device: deviceID, Cause: a.Severity.String(),
			Detail: fmt.Sprintf("conf=%.2f layers=%d", conf, len(layers)),
		})
	}
	if c.OnAlert != nil {
		c.OnAlert(a)
	}
	return &a
}

// containDevice picks and executes a containment action based on the
// evidence mix.
func (c *Core) containDevice(deviceID string, evidence []Signal) string {
	// Rogue-app evidence points at the service layer first.
	for _, s := range evidence {
		if strings.HasPrefix(s.Kind, "rogue-app:") && c.contain.RemoveApp != nil {
			c.contain.RemoveApp(strings.TrimPrefix(s.Kind, "rogue-app:"))
			return "app-removed"
		}
	}
	// Active malware (loader/beacon/flood) warrants quarantine.
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

// FlaggedDevices lists devices with at least one alert, sorted.
func (c *Core) FlaggedDevices() []string {
	var out []string
	for id, d := range c.devs {
		if d.nAlerts > 0 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// TokenLifetimeFor implements the §IV-A1 correlation-driven token policy:
// devices with recent alerts get sharply shorter token lifetimes.
func (c *Core) TokenLifetimeFor(deviceID string, base time.Duration, now time.Duration) time.Duration {
	recent := 0
	if d := c.devs[deviceID]; d != nil {
		for _, t := range d.alerts[:d.nAlerts] {
			if now-t <= c.cfg.Window*5 {
				recent++
			}
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
