package testbed

import (
	"fmt"
	"time"

	"xlf/internal/netsim"
	"xlf/internal/obs"
	"xlf/internal/sim"
)

// City is the scale scenario behind examples/smartcity and E10: a fleet of
// report-only sensors spread over districts, each district draining into
// one sink node. It exists to exercise the kernel's million-device
// contract, so the steady state allocates nothing per report:
//
//   - Sensors are not netsim nodes. Only the district sinks are attached;
//     a sensor is two pooled timer events per period (its tick and the
//     packet delivery) plus one reused Packet. Unattached sources fall
//     back to the default LAN link inside Send, which is exactly the
//     uniform access link the scenario wants.
//   - All sensors share one tick callback (a single func(any) value); the
//     per-sensor state rides in the event's boxed arg, so re-arming is a
//     pooled ScheduleArg with no closure capture.
//   - A sensor's Packet is reused across periods. That is sound because a
//     report's delivery delay is bounded by the link parameters (a few
//     milliseconds here) while the report period is seconds: the packet
//     is long delivered before its next use.
type City struct {
	Kernel *sim.Kernel
	Net    *netsim.Network

	cfg       CityConfig
	sensors   []citySensor
	tick      func(any)
	delivered []uint64 // per-district
	sent      uint64

	// Telemetry pipeline (nil unless CityConfig.RollupInterval > 0; see
	// citytelemetry.go). The hot paths hold the instruments directly, so
	// the disabled state costs one nil branch per event.
	tel           *obs.Telemetry
	cSent         *obs.Counter
	cDelivered    *obs.Counter
	cAttackSent   *obs.Counter
	cFloodFlagged *obs.Counter
	cDropped      *obs.Counter

	// Per-district flood detector state, reset every window.
	windowCount    []uint64
	mgIdx          []int // Boyer-Moore majority candidate (sensor index)
	mgCnt          []uint32
	floodThreshold uint64
	lastDropped    uint64

	attackers     []cityAttacker
	attackTick    func(any)
	telemetryTick func(any)
}

// CityConfig sizes the scenario. Zero values pick scenario defaults.
type CityConfig struct {
	Seed int64
	// Devices is the sensor count (default 1000).
	Devices int
	// Districts is the sink count (default Devices/10000+1, min 16).
	Districts int
	// ReportEvery is each sensor's report period (default 10s). First
	// reports are staggered uniformly across one period so a million
	// sensors do not phase-lock into one tick.
	ReportEvery time.Duration
	// Horizon is how much simulated time Run covers (default 60s).
	Horizon time.Duration

	// RollupInterval, when positive, enables the telemetry pipeline: an
	// obs.Telemetry over the city's metrics registry ticked at this
	// sim-time interval, with the default detection SLO
	// (citytelemetry.go). Zero disables all of it.
	RollupInterval time.Duration
	// Attacks is the scripted attack timeline; requires RollupInterval
	// > 0 (the flood detector scans per rollup window).
	Attacks []CityAttack
}

// citySensor is one device's entire footprint: its reusable packet and its
// report cadence.
type citySensor struct {
	pkt    netsim.Packet
	city   *City
	period time.Duration
}

// CityStats summarizes a completed run.
type CityStats struct {
	Devices   int
	Districts int
	// Sent counts sensor reports handed to the network; Delivered counts
	// reports that reached their district sink; Dropped is the network's
	// loss/unroutable count (zero here: lossless links, attached sinks).
	Sent, Delivered, Dropped uint64
	// Events is the kernel's dispatch count for the whole run.
	Events uint64
	// Now is the simulated completion time.
	Now time.Duration
}

func (s CityStats) String() string {
	return fmt.Sprintf("%d devices / %d districts: %d sent, %d delivered, %d dropped, %d kernel events in %s simulated",
		s.Devices, s.Districts, s.Sent, s.Delivered, s.Dropped, s.Events, s.Now)
}

// NewCity wires the scenario: one kernel, one network, Districts sink
// nodes, and Devices sensors with staggered first reports.
func NewCity(cfg CityConfig) (*City, error) {
	if cfg.Devices <= 0 {
		cfg.Devices = 1000
	}
	if cfg.Districts <= 0 {
		cfg.Districts = cfg.Devices/10000 + 1
		if cfg.Districts < 16 {
			cfg.Districts = 16
		}
	}
	if cfg.Districts > cfg.Devices {
		cfg.Districts = cfg.Devices
	}
	if cfg.ReportEvery <= 0 {
		cfg.ReportEvery = 10 * time.Second
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 60 * time.Second
	}

	c := &City{
		Kernel:    sim.NewKernel(cfg.Seed),
		cfg:       cfg,
		delivered: make([]uint64, cfg.Districts),
	}
	c.Net = netsim.New(c.Kernel)

	sinkLink := netsim.Link{Latency: 200 * time.Microsecond, Bandwidth: 1e9}
	for d := 0; d < cfg.Districts; d++ {
		d := d
		sink := &netsim.FuncNode{
			Address: districtAddr(d),
			Fn:      func(_ *netsim.Network, p *netsim.Packet) { c.deliver(d, p) },
		}
		if err := c.Net.Attach(sink, sinkLink); err != nil {
			return nil, fmt.Errorf("testbed: city sink %d: %w", d, err)
		}
	}

	// The one shared tick: report, then re-arm with the same arg.
	c.tick = func(a any) {
		s := a.(*citySensor)
		s.city.sent++
		s.city.cSent.Inc()
		s.city.Net.Send(&s.pkt)
		s.city.Kernel.ScheduleArg(s.period, "city-report", s.city.tick, a)
	}

	c.sensors = make([]citySensor, cfg.Devices)
	rng := c.Kernel.Rand()
	for i := range c.sensors {
		s := &c.sensors[i]
		s.city = c
		s.period = cfg.ReportEvery
		s.pkt = netsim.Packet{
			Src:   netsim.Addr(fmt.Sprintf("lan:sensor-%d", i)),
			Dst:   districtAddr(i % cfg.Districts),
			Proto: "UDP",
			Size:  64,
		}
		offset := time.Duration(rng.Int63n(int64(cfg.ReportEvery)))
		c.Kernel.ScheduleArg(offset, "city-report", c.tick, s)
	}
	if err := c.initTelemetry(); err != nil {
		return nil, err
	}
	return c, nil
}

// deliver is every district sink's receive path: one counter per report
// plus, when telemetry is on, the per-window flood-attribution state and
// the exfiltration size check. Per-event, so it must not allocate.
//
//xlf:hotpath
func (c *City) deliver(d int, p *netsim.Packet) {
	c.delivered[d]++
	c.cDelivered.Inc()
	if c.tel == nil {
		return
	}
	c.windowCount[d]++
	if i := sensorIndexOf(p.Src); i >= 0 {
		// Boyer-Moore majority vote: the flood source dominates its
		// district's window traffic, so the surviving candidate at scan
		// time attributes the flood without per-sender state.
		switch {
		case c.mgCnt[d] == 0:
			c.mgIdx[d] = i
			c.mgCnt[d] = 1
		case c.mgIdx[d] == i:
			c.mgCnt[d]++
		default:
			c.mgCnt[d]--
		}
	}
	if p.Size >= exfilSizeThreshold {
		now := c.Kernel.Now()
		c.tel.Detections.Observe(now, string(p.Src))
		c.tel.Recorder.Trigger(now, obs.TriggerAlert)
	}
}

func districtAddr(d int) netsim.Addr {
	return netsim.Addr(fmt.Sprintf("lan:district-%d", d))
}

// Run drives the scenario to its horizon and reports the totals. The
// kernel cannot fail, so the error is always nil.
func (c *City) Run() (CityStats, error) {
	c.Kernel.Run(c.cfg.Horizon)
	var delivered uint64
	for _, n := range c.delivered {
		delivered += n
	}
	_, dropped, _ := c.Net.Stats()
	return CityStats{
		Devices:   c.cfg.Devices,
		Districts: c.cfg.Districts,
		Sent:      c.sent,
		Delivered: delivered,
		Dropped:   dropped,
		Events:    c.Kernel.Processed(),
		Now:       c.Kernel.Now(),
	}, nil
}
