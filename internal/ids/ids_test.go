package ids

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"xlf/internal/netsim"
)

func rec(t time.Duration, src, dst netsim.Addr, port, size int) netsim.PacketRecord {
	return netsim.PacketRecord{Time: t, Src: src, Dst: dst, DstPort: port, Size: size}
}

func TestScanDetectorFiresOnFanOut(t *testing.T) {
	d := NewScanDetector(10*time.Second, 10)
	var alerts []Alert
	for i := 0; i < 20; i++ {
		r := rec(time.Duration(i)*100*time.Millisecond, "lan:cam-1", netsim.Addr(fmt.Sprintf("wan:victim-%d", i)), 23, 60)
		alerts = append(alerts, d.Process(r)...)
	}
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want exactly 1 (rate-limited)", len(alerts))
	}
	a := alerts[0]
	if a.Detector != "scan" || a.Src != "lan:cam-1" || a.Confidence < 0.5 {
		t.Errorf("alert = %s", a)
	}
}

func TestScanDetectorIgnoresNormalTraffic(t *testing.T) {
	d := NewScanDetector(10*time.Second, 10)
	// A device talking to its two cloud endpoints repeatedly: no fan-out.
	for i := 0; i < 100; i++ {
		dst := netsim.Addr("wan:cloud-a")
		if i%2 == 0 {
			dst = "wan:cloud-b"
		}
		if got := d.Process(rec(time.Duration(i)*50*time.Millisecond, "lan:bulb", dst, 443, 120)); len(got) != 0 {
			t.Fatalf("false positive: %v", got)
		}
	}
}

func TestScanDetectorWindowEviction(t *testing.T) {
	d := NewScanDetector(time.Second, 10)
	// 9 targets, then a long pause, then 9 more: never 10 in one window.
	for i := 0; i < 9; i++ {
		d.Process(rec(time.Duration(i)*10*time.Millisecond, "lan:x", netsim.Addr(fmt.Sprintf("wan:a-%d", i)), 23, 60))
	}
	for i := 0; i < 9; i++ {
		if got := d.Process(rec(5*time.Second+time.Duration(i)*10*time.Millisecond, "lan:x", netsim.Addr(fmt.Sprintf("wan:b-%d", i)), 23, 60)); len(got) != 0 {
			t.Fatalf("evicted window still triggered: %v", got)
		}
	}
}

func TestFloodDetector(t *testing.T) {
	d := NewFloodDetector(time.Second, 100, 3)
	var alerts []Alert
	// 3 bots at 50 pps each to one victim -> 150 pkts in a 1s bin.
	for i := 0; i < 150; i++ {
		src := netsim.Addr(fmt.Sprintf("lan:bot-%d", i%3))
		alerts = append(alerts, d.Process(rec(time.Duration(i)*6*time.Millisecond, src, "wan:victim", 80, 512))...)
	}
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	if alerts[0].Dst != "wan:victim" {
		t.Errorf("alert dst = %s", alerts[0].Dst)
	}
}

func TestFloodDetectorRequiresDistributedSources(t *testing.T) {
	d := NewFloodDetector(time.Second, 100, 3)
	// One chatty (benign) source exceeding the packet threshold alone.
	for i := 0; i < 300; i++ {
		if got := d.Process(rec(time.Duration(i)*3*time.Millisecond, "lan:tv", "wan:stream", 443, 1400)); len(got) != 0 {
			t.Fatalf("single-source stream flagged as DDoS: %v", got)
		}
	}
}

func TestBeaconDetector(t *testing.T) {
	d := NewBeaconDetector(8, 0.1)
	var alerts []Alert
	// Perfectly periodic beacon every 5s.
	for i := 0; i < 12; i++ {
		alerts = append(alerts, d.Process(rec(time.Duration(i)*5*time.Second, "lan:cam", "wan:cnc", 6667, 64))...)
	}
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	if alerts[0].Detector != "cc-beacon" {
		t.Errorf("alert = %s", alerts[0])
	}
}

func TestBeaconDetectorIgnoresHumanTraffic(t *testing.T) {
	d := NewBeaconDetector(8, 0.1)
	// Human-ish irregular intervals (1s..20s jittered deterministically).
	times := []time.Duration{0, 1, 4, 5, 11, 12, 19, 27, 28, 36, 49, 50}
	for _, s := range times {
		if got := d.Process(rec(s*time.Second, "lan:phone", "wan:web", 443, 800)); len(got) != 0 {
			t.Fatalf("irregular traffic flagged: %v", got)
		}
	}
}

func TestBruteForceDetector(t *testing.T) {
	d := NewBruteForceDetector(30*time.Second, 8)
	var alerts []Alert
	for i := 0; i < 10; i++ {
		alerts = append(alerts, d.Process(rec(time.Duration(i)*time.Second, "wan:attacker", "lan:cam", 23, 40))...)
	}
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	// Non-auth ports ignored.
	d2 := NewBruteForceDetector(30*time.Second, 3)
	for i := 0; i < 10; i++ {
		if got := d2.Process(rec(time.Duration(i)*time.Second, "lan:a", "lan:b", 8883, 40)); len(got) != 0 {
			t.Fatalf("non-auth port flagged: %v", got)
		}
	}
}

func TestPipelineFanOutAndCollect(t *testing.T) {
	p := DefaultPipeline()
	var recs []netsim.PacketRecord
	// Mixed: a scan + a beacon, interleaved with benign chatter.
	for i := 0; i < 30; i++ {
		recs = append(recs, rec(time.Duration(i)*300*time.Millisecond, "lan:infected", netsim.Addr(fmt.Sprintf("wan:t%d", i)), 23, 60))
		// Benign chatter with human-scale jitter (i^2 mod 700 ms) so it is
		// not machine-periodic.
		jitter := time.Duration(i*i*37%700) * time.Millisecond
		recs = append(recs, rec(time.Duration(i)*300*time.Millisecond+jitter, "lan:bulb", "wan:hue", 443, 200))
	}
	for i := 0; i < 12; i++ {
		recs = append(recs, rec(time.Duration(i)*5*time.Second, "lan:cam", "wan:cnc", 6667, 64))
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	var alerts []Alert
	for _, r := range recs {
		alerts = append(alerts, p.Process(r)...)
	}
	byDet := map[string]int{}
	for _, a := range alerts {
		byDet[a.Detector]++
	}
	if byDet["scan"] == 0 {
		t.Error("pipeline missed the scan")
	}
	if byDet["cc-beacon"] == 0 {
		t.Error("pipeline missed the beacon")
	}
	// No alert should blame the benign bulb.
	for _, a := range alerts {
		if a.Src == "lan:bulb" {
			t.Errorf("benign device accused: %s", a)
		}
	}
	if len(p.Alerts()) != len(alerts) {
		t.Error("Alerts() inconsistent with returned alerts")
	}
}

func TestAlertString(t *testing.T) {
	a := Alert{Time: time.Second, Detector: "scan", Src: "lan:x", Dst: "wan:y", Confidence: 0.9, Detail: "d"}
	s := a.String()
	for _, want := range []string{"scan", "lan:x", "wan:y", "0.90"} {
		if !contains(s, want) {
			t.Errorf("alert string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
