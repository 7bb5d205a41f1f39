package testbed

import (
	"fmt"
	"time"

	"xlf/internal/netsim"
	"xlf/internal/obs"
)

// City telemetry: the sim-clock rollup pipeline plus a scripted attack
// timeline and the per-window detector that closes the loop. Everything
// here is off (and allocation-free) unless CityConfig.RollupInterval is
// positive; the per-event hot paths stay in city.go.

// Attack classes the city's timeline supports.
const (
	// CityAttackFlood floods a victim sensor's district sink at ~3x the
	// district's aggregate report rate, spoofing the victim's source
	// address. The per-window detector flags the district and attributes
	// the flood by majority vote.
	CityAttackFlood = "flood"
	// CityAttackExfil streams oversized reports from a victim sensor;
	// the sink flags any report at or above exfilSizeThreshold.
	CityAttackExfil = "exfil"
)

// exfilSizeThreshold is the sink-side size cut: a city report is 64
// bytes, so anything at 4 KiB or above is flagged on sight.
const exfilSizeThreshold = 4096

// exfilSize is the oversized report the exfil attacker ships.
const exfilSize = 64 << 10

// CityAttack is one scripted attack in the city's timeline.
type CityAttack struct {
	// Class is CityAttackFlood or CityAttackExfil.
	Class string
	// At is the sim time the attack starts.
	At time.Duration
	// Duration is how long it runs (default 10s).
	Duration time.Duration
	// Sensors is how many victim sensors it touches (default 1); victims
	// are spread deterministically across the fleet.
	Sensors int
}

// DefaultCityAttacks is the timeline E10 and examples/smartcity run when
// telemetry is enabled: a two-sensor flood and a single-sensor slow
// exfiltration, overlapping so one rollup window sees both.
func DefaultCityAttacks() []CityAttack {
	return []CityAttack{
		{Class: CityAttackFlood, At: 15 * time.Second, Duration: 30 * time.Second, Sensors: 2},
		{Class: CityAttackExfil, At: 25 * time.Second, Duration: 20 * time.Second, Sensors: 1},
	}
}

// cityAttacker is one victim's attack stream: a reused packet re-armed on
// the shared attackTick, mirroring the citySensor idiom.
type cityAttacker struct {
	pkt      netsim.Packet
	city     *City
	class    string
	interval time.Duration
	start    time.Duration
	until    time.Duration
	injected bool
}

// Telemetry returns the city's telemetry pipeline, or nil when
// RollupInterval was not set.
func (c *City) Telemetry() *obs.Telemetry { return c.tel }

// initTelemetry wires the obs.Telemetry stack (default detection SLO),
// the detector state and the attack timeline. Called from NewCity after
// the sensor fleet is built; a no-op when RollupInterval is zero.
func (c *City) initTelemetry() error {
	cfg := &c.cfg
	if cfg.RollupInterval <= 0 {
		if len(cfg.Attacks) > 0 {
			return fmt.Errorf("testbed: city attacks require RollupInterval > 0 (the flood detector scans per rollup window)")
		}
		return nil
	}

	c.tel = obs.NewTelemetry(nil, cfg.RollupInterval, 0)
	reg := c.tel.Registry
	c.cSent = reg.Counter("city.sent")
	c.cDelivered = reg.Counter("city.delivered")
	c.cAttackSent = reg.Counter("city.attack_sent")
	c.cFloodFlagged = reg.Counter("city.flood_flagged")
	c.cDropped = reg.Counter("net.dropped")

	c.windowCount = make([]uint64, cfg.Districts)
	c.mgIdx = make([]int, cfg.Districts)
	c.mgCnt = make([]uint32, cfg.Districts)

	// The flood cut: twice the expected per-district deliveries per
	// window, plus slack so tiny fleets do not false-positive on report
	// staggering. The flood runs at ~3x the district aggregate, so a
	// flooded window clears the cut while benign windows sit at half it.
	perDistrict := float64(cfg.Devices) / float64(cfg.Districts)
	expect := perDistrict * float64(cfg.RollupInterval) / float64(cfg.ReportEvery)
	c.floodThreshold = uint64(2*expect) + 4

	if err := c.initAttacks(); err != nil {
		return err
	}

	// The rollup tick rides the kernel like the sensors do: a pooled
	// ScheduleArg re-arm, no closure per window, no jitter (a jittered
	// Ticker would consume kernel RNG and shift the sensor stagger).
	c.telemetryTick = func(any) {
		now := c.Kernel.Now()
		c.scanWindow(now)
		c.tel.Tick(now)
		c.Kernel.ScheduleArg(c.cfg.RollupInterval, "city-telemetry", c.telemetryTick, nil)
	}
	c.Kernel.ScheduleArg(cfg.RollupInterval, "city-telemetry", c.telemetryTick, nil)
	return nil
}

// initAttacks validates the timeline and arms one cityAttacker per
// (attack, victim) pair. Victims are picked by arithmetic spread — no RNG
// draws, so enabling attacks never shifts the sensor stagger stream.
func (c *City) initAttacks() error {
	cfg := &c.cfg
	for ai := range cfg.Attacks {
		atk := &cfg.Attacks[ai]
		if atk.Class != CityAttackFlood && atk.Class != CityAttackExfil {
			return fmt.Errorf("testbed: unknown city attack class %q", atk.Class)
		}
		if atk.At < 0 {
			return fmt.Errorf("testbed: city attack %d starts before the epoch", ai)
		}
		if atk.Duration <= 0 {
			atk.Duration = 10 * time.Second
		}
		if atk.Sensors <= 0 {
			atk.Sensors = 1
		}
		if atk.Sensors > cfg.Devices {
			atk.Sensors = cfg.Devices
		}
		for s := 0; s < atk.Sensors; s++ {
			victim := (ai + s*cfg.Devices/atk.Sensors) % cfg.Devices
			a := cityAttacker{
				city:  c,
				class: atk.Class,
				start: atk.At,
				until: atk.At + atk.Duration,
			}
			src := c.sensors[victim].pkt.Src
			dst := c.sensors[victim].pkt.Dst
			switch atk.Class {
			case CityAttackFlood:
				// ~3x the district's aggregate report rate, clamped
				// above the sink link latency so packet reuse stays
				// sound (delivered long before the next send).
				iv := time.Duration(float64(cfg.ReportEvery) * float64(cfg.Districts) / (3 * float64(cfg.Devices)))
				if iv < 500*time.Microsecond {
					iv = 500 * time.Microsecond
				}
				a.interval = iv
				a.pkt = netsim.Packet{Src: src, Dst: dst, Proto: "UDP", Size: 64}
			case CityAttackExfil:
				// A slow drip of oversized reports; the interval clears
				// the 64 KiB transmit time on the sink link.
				a.interval = 100 * time.Millisecond
				a.pkt = netsim.Packet{Src: src, Dst: dst, Proto: "UDP", Size: exfilSize}
			}
			c.attackers = append(c.attackers, a)
		}
	}
	if len(c.attackers) == 0 {
		return nil
	}

	// Shared tick, same shape as the sensor tick: mark ground truth on
	// the first packet, send, re-arm until the attack window closes.
	c.attackTick = func(a any) {
		at := a.(*cityAttacker)
		now := at.city.Kernel.Now()
		if now >= at.until {
			return
		}
		if !at.injected {
			at.injected = true
			at.city.tel.Detections.Inject(now, at.class, string(at.pkt.Src))
		}
		at.city.cAttackSent.Inc()
		at.city.Net.Send(&at.pkt)
		at.city.Kernel.ScheduleArg(at.interval, "city-attack", at.city.attackTick, a)
	}
	for i := range c.attackers {
		a := &c.attackers[i]
		c.Kernel.ScheduleArg(a.start, "city-attack", c.attackTick, a)
	}
	return nil
}

// scanWindow is the per-window detector pass: flag flooded districts and
// attribute them by the surviving majority candidate, then account
// network drops, then reset the window state. Runs once per rollup
// window on the sim clock.
func (c *City) scanWindow(now time.Duration) {
	for d := range c.windowCount {
		if c.windowCount[d] > c.floodThreshold && c.mgCnt[d] > 0 {
			c.cFloodFlagged.Inc()
			c.tel.Detections.Observe(now, string(c.sensors[c.mgIdx[d]].pkt.Src))
			c.tel.Recorder.Trigger(now, obs.TriggerAlert)
		}
		c.windowCount[d] = 0
		c.mgCnt[d] = 0
	}
	if _, dropped, _ := c.Net.Stats(); dropped > c.lastDropped {
		c.cDropped.Add(dropped - c.lastDropped)
		c.lastDropped = dropped
		c.tel.Recorder.Trigger(now, obs.TriggerDropSpike)
	}
}

// citySensorPrefix is the sensor address namespace ("lan:sensor-<i>").
const citySensorPrefix = "lan:sensor-"

// sensorIndexOf parses a sensor index out of its address without
// allocating; -1 for non-sensor sources. Per-delivery hot path.
//
//xlf:hotpath
func sensorIndexOf(a netsim.Addr) int {
	s := string(a)
	if len(s) <= len(citySensorPrefix) || s[:len(citySensorPrefix)] != citySensorPrefix {
		return -1
	}
	n := 0
	for i := len(citySensorPrefix); i < len(s); i++ {
		ch := s[i]
		if ch < '0' || ch > '9' {
			return -1
		}
		n = n*10 + int(ch-'0')
	}
	return n
}
