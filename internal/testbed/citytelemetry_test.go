package testbed

import (
	"bytes"
	"testing"
	"time"

	"xlf/internal/netsim"
	"xlf/internal/obs"
)

// raceEnabledTestbed is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so AllocsPerRun guards only run in regular
// builds.
var raceEnabledTestbed bool

func telemetryCity(t *testing.T) (*City, CityStats) {
	t.Helper()
	city, err := NewCity(CityConfig{
		Seed:           7,
		Devices:        1000,
		Horizon:        60 * time.Second,
		RollupInterval: time.Second,
		Attacks:        DefaultCityAttacks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := city.Run()
	if err != nil {
		t.Fatal(err)
	}
	return city, st
}

// TestCityTelemetryDetectsAttacks runs the default timeline and checks
// the full loop: injections marked, every attack detected, latency
// within the SLO, windows and dumps produced.
func TestCityTelemetryDetectsAttacks(t *testing.T) {
	city, st := telemetryCity(t)
	tel := city.Telemetry()
	if tel == nil {
		t.Fatal("telemetry enabled but Telemetry() is nil")
	}
	if st.Sent == 0 || st.Dropped != 0 {
		t.Fatalf("city run degenerate: %+v", st)
	}

	// 2 flood victims + 1 exfil victim, all detected.
	if got := tel.Registry.Counter(obs.DetectInjected).Value(); got != 3 {
		t.Errorf("injected = %d, want 3", got)
	}
	if got := tel.Registry.Counter(obs.DetectDetected).Value(); got != 3 {
		t.Errorf("detected = %d, want 3", got)
	}
	if p := tel.Detections.Pending(); p != 0 {
		t.Errorf("%d injections never detected", p)
	}
	stats := tel.Detections.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats classes = %+v, want exfil and flood", stats)
	}
	if stats[0].Class != CityAttackExfil || stats[1].Class != CityAttackFlood {
		t.Errorf("stats order = %+v", stats)
	}
	// Exfil is flagged at first oversized delivery: well under a window.
	if stats[0].P99 > 100*time.Millisecond {
		t.Errorf("exfil p99 = %s, want sub-window detection", stats[0].P99)
	}
	// Flood attribution needs a full window scan (plus the bucketed 2x).
	if stats[1].P99 > 2*tel.Detections.SLO() {
		t.Errorf("flood p99 = %s breaches 2x SLO %s", stats[1].P99, tel.Detections.SLO())
	}
	if got := tel.Registry.Counter(obs.DetectSLOBreach).Value(); got != 0 {
		t.Errorf("slo breaches = %d, want 0 (windows are 1s, SLO 2s)", got)
	}

	// ~60 windows of rollup, and at least one alert-triggered dump.
	if tot := len(tel.Rollup.Windows()) + int(tel.Rollup.Evicted()); tot < 55 || tot > 61 {
		t.Errorf("rollup windows = %d, want ~60", tot)
	}
	dumps := tel.Recorder.Dumps()
	if len(dumps) == 0 {
		t.Fatal("no flight-recorder dumps despite alerts")
	}
	if dumps[0].Reasons[0] != "alert" {
		t.Errorf("first dump reasons = %v", dumps[0].Reasons)
	}

	// The windows carry the flood: some window's city.flood_flagged
	// delta must be nonzero, and attack traffic must show up.
	flagged := false
	for _, w := range tel.Rollup.Windows() {
		for _, cs := range w.Counters {
			if cs.Name == "city.flood_flagged" && cs.Delta > 0 {
				flagged = true
			}
		}
	}
	if !flagged {
		t.Error("no rollup window recorded a flood flag")
	}
	if tel.Registry.Counter("city.attack_sent").Value() == 0 {
		t.Error("attack traffic counter never moved")
	}
}

// TestCityTelemetryDeterministic: two identically-seeded runs serialize
// byte-identical xlf-metrics/v1 artifacts.
func TestCityTelemetryDeterministic(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		city, _ := telemetryCity(t)
		tel := city.Telemetry()
		meta := obs.MetricsMeta{Seed: 7, Clock: "step", Interval: tel.Rollup.Interval()}
		if err := obs.WriteMetrics(&bufs[i], meta, tel.Rollup.Windows(), tel.Recorder.Dumps()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("telemetry bytes differ between two identically-seeded runs")
	}
}

// TestCityAttacksRequireTelemetry: a timeline without a rollup interval
// is a configuration error, not a silently undetected run.
func TestCityAttacksRequireTelemetry(t *testing.T) {
	_, err := NewCity(CityConfig{Devices: 100, Attacks: DefaultCityAttacks()})
	if err == nil {
		t.Fatal("attacks without RollupInterval accepted")
	}
	if _, err := NewCity(CityConfig{Devices: 100, RollupInterval: time.Second,
		Attacks: []CityAttack{{Class: "meteor", At: time.Second}}}); err == nil {
		t.Fatal("unknown attack class accepted")
	}
}

// TestCityTelemetryDisabledIsFrozen: without RollupInterval the run
// matches the plain city byte-for-byte (same stats, no registry).
func TestCityTelemetryDisabledIsFrozen(t *testing.T) {
	a, err := NewCity(CityConfig{Seed: 3, Devices: 500})
	if err != nil {
		t.Fatal(err)
	}
	if a.Telemetry() != nil {
		t.Fatal("telemetry pipeline built without RollupInterval")
	}
	stA, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCity(CityConfig{Seed: 3, Devices: 500, RollupInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Telemetry without attacks must not perturb the scenario itself —
	// only the kernel event count moves (one dispatch per window).
	if extra := stB.Events - stA.Events; extra != 60 {
		t.Errorf("telemetry tick dispatched %d events, want 60 (one per window)", extra)
	}
	stB.Events = stA.Events
	if stA != stB {
		t.Errorf("telemetry changed the run: %+v vs %+v", stA, stB)
	}
}

// TestSensorIndexOf pins the zero-alloc address parser.
func TestSensorIndexOf(t *testing.T) {
	cases := []struct {
		in   netsim.Addr
		want int
	}{
		{"lan:sensor-0", 0},
		{"lan:sensor-42", 42},
		{"lan:sensor-999999", 999999},
		{"lan:district-3", -1},
		{"lan:sensor-", -1},
		{"lan:sensor-12x", -1},
		{"wan:other", -1},
	}
	for _, c := range cases {
		if got := sensorIndexOf(c.in); got != c.want {
			t.Errorf("sensorIndexOf(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestCityHotPathAllocFree is the dynamic half of the //xlf:hotpath
// contract for the telemetry-enabled delivery path.
func TestCityHotPathAllocFree(t *testing.T) {
	if raceEnabledTestbed {
		t.Skip("allocation counts are not meaningful under -race")
	}
	city, err := NewCity(CityConfig{Seed: 1, Devices: 100, RollupInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	pkt := netsim.Packet{Src: "lan:sensor-7", Dst: districtAddr(0), Size: 64}
	big := netsim.Packet{Src: "lan:sensor-8", Dst: districtAddr(0), Size: exfilSize}
	if n := testing.AllocsPerRun(200, func() {
		city.deliver(0, &pkt)
		city.deliver(0, &big)
	}); n != 0 {
		t.Errorf("telemetry-enabled deliver allocates %.1f per run, want 0", n)
	}
}
