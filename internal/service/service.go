// Package service models the IoT service layer (§II-C, §IV-C): a
// SmartThings-style cloud with device handlers, an event bus with
// subscriptions, sandboxed trigger-action SmartApps and an OTA update
// pipeline. The platform reproduces the design flaws Fernandes et al.
// found — coarse capability grants (over-privilege) and unsigned events
// (spoofing) — behind feature flags, so the attack scenarios and the XLF
// defenses exercise the same code paths.
package service

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Event is one message on the platform bus.
type Event struct {
	Time     time.Duration
	DeviceID string
	// Name is the event label ("motion", "on", "temperature").
	Name string
	// Value carries an optional reading.
	Value float64
	// Source is ground truth for evaluation: "device", "app:<id>", or
	// "spoofed:<attacker>"; subscribers do NOT base decisions on it
	// unless the platform signs events.
	Source string
}

// Command is a platform-issued device operation.
type Command struct {
	Time     time.Duration
	DeviceID string
	// Name is the command label ("on", "unlock", "heat").
	Name string
	// IssuedBy is the app or user that caused it.
	IssuedBy string
}

// Rule is a trigger-action automation: when the trigger event arrives,
// issue the action command.
type Rule struct {
	TriggerDevice string
	TriggerEvent  string
	// TriggerAbove, when non-nil, also requires Value > *TriggerAbove
	// (the paper's "open the window when the temperature increases above
	// 80F" example).
	TriggerAbove  *float64
	ActionDevice  string
	ActionCommand string
}

// SmartApp is a sandboxed automation program with capability grants.
type SmartApp struct {
	ID     string
	Rules  []Rule
	Grants []Grant
	// Malicious marks ground-truth rogue apps for evaluation.
	Malicious bool
	// Hook, when set, runs on every delivered event after rule
	// processing; malicious apps use it to exfiltrate or issue hidden
	// commands via the returned command list.
	Hook func(ev Event) []Command
}

// Grant is a capability permission on one device.
type Grant struct {
	DeviceID   string
	Capability string
}

// Platform flaws (§IV-C2), switchable to compare vulnerable vs hardened
// configurations.
type Flaws struct {
	// CoarseGrants reproduces SmartThings over-privilege: holding any
	// capability of a device implies all capabilities of that device.
	CoarseGrants bool
	// UnsignedEvents lets any caller publish events in a device's name
	// (event spoofing & insufficient event data protection).
	UnsignedEvents bool
	// OpenRedirectOTA accepts unsigned firmware images in the OTA
	// pipeline.
	OpenRedirectOTA bool
}

// Errors returned by platform operations.
var (
	ErrUnknownDevice = errors.New("service: unknown device")
	ErrNotPermitted  = errors.New("service: capability not granted")
	ErrSpoofRejected = errors.New("service: unsigned event rejected")
	ErrUnsignedImage = errors.New("service: unsigned OTA image rejected")
)

// DeviceHandler is the cloud-side model of a device.
type DeviceHandler struct {
	ID   string
	Caps []string
	// CapOfCommand maps command names to the capability they require.
	CapOfCommand map[string]string
	// Deliver pushes a command down to the physical device; installed by
	// the testbed. A nil Deliver records but does not actuate.
	Deliver func(cmd Command) error
}

// Cloud is the service-layer platform.
type Cloud struct {
	Flaws Flaws

	devices map[string]*DeviceHandler
	apps    map[string]*SmartApp

	// CommandLog is every command the platform issued (evaluation and
	// §IV-C2 application verification read this).
	commandLog []Command

	// EventMonitor, when set, sees every accepted event (XLF service-layer
	// feed into the Core).
	EventMonitor func(ev Event)
	// CommandMonitor, when set, sees every issued command.
	CommandMonitor func(cmd Command)

	now func() time.Duration
}

// NewCloud creates a platform. now supplies simulation time.
func NewCloud(flaws Flaws, now func() time.Duration) *Cloud {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Cloud{
		Flaws:   flaws,
		devices: make(map[string]*DeviceHandler),
		apps:    make(map[string]*SmartApp),
		now:     now,
	}
}

// RegisterDevice adds a device handler.
func (c *Cloud) RegisterDevice(h *DeviceHandler) error {
	if h.ID == "" {
		return errors.New("service: device with empty ID")
	}
	if _, dup := c.devices[h.ID]; dup {
		return fmt.Errorf("service: duplicate device %q", h.ID)
	}
	c.devices[h.ID] = h
	return nil
}

// InstallApp adds a SmartApp after validating its grants reference known
// devices.
func (c *Cloud) InstallApp(app *SmartApp) error {
	if app.ID == "" {
		return errors.New("service: app with empty ID")
	}
	if _, dup := c.apps[app.ID]; dup {
		return fmt.Errorf("service: duplicate app %q", app.ID)
	}
	for _, g := range app.Grants {
		if _, ok := c.devices[g.DeviceID]; !ok {
			return fmt.Errorf("service: grant references %w: %s", ErrUnknownDevice, g.DeviceID)
		}
	}
	c.apps[app.ID] = app
	return nil
}

// UninstallApp removes an app (XLF containment action).
func (c *Cloud) UninstallApp(id string) { delete(c.apps, id) }

// Apps returns installed app IDs, sorted.
func (c *Cloud) Apps() []string {
	out := make([]string, 0, len(c.apps))
	for id := range c.apps {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// hasGrant checks an app's permission for a capability on a device,
// honouring the CoarseGrants flaw.
func (c *Cloud) hasGrant(app *SmartApp, deviceID, capability string) bool {
	for _, g := range app.Grants {
		if g.DeviceID != deviceID {
			continue
		}
		if g.Capability == capability {
			return true
		}
		if c.Flaws.CoarseGrants {
			return true // any grant on the device implies all capabilities
		}
	}
	return false
}

// PublishDeviceEvent is the authenticated path devices use. Events flow to
// the monitor and subscribed apps.
func (c *Cloud) PublishDeviceEvent(deviceID, name string, value float64) error {
	if _, ok := c.devices[deviceID]; !ok {
		return ErrUnknownDevice
	}
	return c.dispatch(Event{Time: c.now(), DeviceID: deviceID, Name: name, Value: value, Source: "device"})
}

// PublishRaw is the unauthenticated publish path. With the UnsignedEvents
// flaw it accepts events in any device's name (spoofing); hardened
// platforms reject it.
func (c *Cloud) PublishRaw(ev Event) error {
	if !c.Flaws.UnsignedEvents {
		return ErrSpoofRejected
	}
	ev.Time = c.now()
	return c.dispatch(ev)
}

func (c *Cloud) dispatch(ev Event) error {
	if c.EventMonitor != nil {
		c.EventMonitor(ev)
	}
	// Deterministic app iteration order.
	ids := c.Apps()
	for _, id := range ids {
		app := c.apps[id]
		for _, r := range app.Rules {
			if r.TriggerDevice != ev.DeviceID || r.TriggerEvent != ev.Name {
				continue
			}
			if r.TriggerAbove != nil && ev.Value <= *r.TriggerAbove {
				continue
			}
			if err := c.issue(app, r.ActionDevice, r.ActionCommand); err != nil && !errors.Is(err, ErrNotPermitted) {
				return err
			}
		}
		if app.Hook != nil {
			for _, cmd := range app.Hook(ev) {
				// Hidden commands still go through the grant check — the
				// over-privilege flaw is what lets them through.
				if err := c.issue(app, cmd.DeviceID, cmd.Name); err != nil && !errors.Is(err, ErrNotPermitted) {
					return err
				}
			}
		}
	}
	return nil
}

// issue runs the sandbox permission check and delivers the command.
func (c *Cloud) issue(app *SmartApp, deviceID, command string) error {
	h, ok := c.devices[deviceID]
	if !ok {
		return ErrUnknownDevice
	}
	capNeeded := h.CapOfCommand[command]
	if capNeeded == "" {
		capNeeded = command // default: command name == capability
	}
	if !c.hasGrant(app, deviceID, capNeeded) {
		return fmt.Errorf("%w: app %s, device %s, cap %s", ErrNotPermitted, app.ID, deviceID, capNeeded)
	}
	cmd := Command{Time: c.now(), DeviceID: deviceID, Name: command, IssuedBy: "app:" + app.ID}
	c.commandLog = append(c.commandLog, cmd)
	if c.CommandMonitor != nil {
		c.CommandMonitor(cmd)
	}
	if h.Deliver != nil {
		return h.Deliver(cmd)
	}
	return nil
}

// CommandLog returns issued commands (a copy).
func (c *Cloud) CommandLog() []Command { return append([]Command(nil), c.commandLog...) }
