package exp

import (
	"strings"
	"testing"
)

// The experiment suite's assertions check the SHAPE of each result — who
// wins, by roughly what factor, where the crossovers fall — not absolute
// numbers (per the reproduction contract in DESIGN.md).

func TestTable1Shape(t *testing.T) {
	r := mustLookup(t, "T1").Run(NewEnv(1))
	if r.Numbers["rows"] != 20 {
		t.Errorf("rows = %v, want 20", r.Numbers["rows"])
	}
	// Every device except the passive RFID tags can afford some cipher.
	if r.Numbers["devices_with_cipher"] < 17 {
		t.Errorf("devices with an affordable cipher = %v, want >= 17", r.Numbers["devices_with_cipher"])
	}
	if !strings.Contains(r.Output, "Philips Hue") {
		t.Error("Table I output incomplete")
	}
}

func TestTable2Shape(t *testing.T) {
	r := mustLookup(t, "T2").Run(NewEnv(1))
	if r.Numbers["vulnerable_successes"] != 7 {
		t.Errorf("vulnerable successes = %v, want 7", r.Numbers["vulnerable_successes"])
	}
	// The hardened platform stops the OTA tamper; the rest are device
	// flaws it cannot remove.
	if r.Numbers["hardened_successes"] >= 7 {
		t.Errorf("hardened successes = %v, want < 7", r.Numbers["hardened_successes"])
	}
	// XLF detects every Table II attack even where prevention is
	// impossible.
	if r.Numbers["xlf_detected"] != 7 {
		t.Errorf("XLF detected = %v, want 7", r.Numbers["xlf_detected"])
	}
}

func TestTable3Shape(t *testing.T) {
	r := mustLookup(t, "T3").Run(NewEnv(1))
	if r.Numbers["algorithms"] != 16 {
		t.Errorf("algorithms = %v, want 16 (Table III rows)", r.Numbers["algorithms"])
	}
	if r.Numbers["fastest_mbps"] <= 0 {
		t.Error("no measured throughput")
	}
	for _, name := range []string{"AES", "PRESENT", "Hummingbird2", "TWINE", "3DES"} {
		if !strings.Contains(r.Output, name) {
			t.Errorf("Table III missing %s", name)
		}
	}
}

func TestFiguresRender(t *testing.T) {
	if f := Figure1(); !strings.Contains(f.Output, "Device layer") {
		t.Error("figure 1 incomplete")
	}
	if f := Figure2(); f.Numbers["protocols"] < 20 {
		t.Error("figure 2 incomplete")
	}
	f3 := Figure3()
	if f3.Numbers["attacks"] < 13 {
		t.Errorf("figure 3 attacks = %v, want >= 13", f3.Numbers["attacks"])
	}
	for _, want := range []string{"device layer", "network layer", "service layer"} {
		if !strings.Contains(f3.Output, want) {
			t.Errorf("figure 3 missing %q", want)
		}
	}
	if f := Figure4(); !strings.Contains(f.Output, "XLF Core") {
		t.Error("figure 4 incomplete")
	}
}

func TestE1CrossLayerDominates(t *testing.T) {
	r := mustLookup(t, "E1").Run(NewEnv(1))
	full := r.Numbers["f1_xlf-full"]
	for _, single := range []string{"device-only", "network-only", "service-only"} {
		if full <= r.Numbers["f1_"+single] {
			t.Errorf("xlf-full F1 %v not above %s F1 %v", full, single, r.Numbers["f1_"+single])
		}
	}
	if full < 0.99 {
		t.Errorf("xlf-full F1 = %v, want ~1.0", full)
	}
	// The corroboration bonus must contribute (no-bonus recall strictly
	// below full recall on this campaign).
	if r.Numbers["recall_xlf-no-bonus"] >= r.Numbers["recall_xlf-full"] {
		t.Errorf("layer bonus shows no effect: %v vs %v",
			r.Numbers["recall_xlf-no-bonus"], r.Numbers["recall_xlf-full"])
	}
	// Nothing benign is accused in any configuration.
	for _, cfg := range []string{"device-only", "network-only", "service-only", "xlf-no-bonus", "xlf-full"} {
		if r.Numbers["precision_"+cfg] < 0.99 {
			t.Errorf("%s precision = %v, want 1.0", cfg, r.Numbers["precision_"+cfg])
		}
	}
}

// TestE1RobustAcrossSeeds re-runs the flagship claim at different seeds:
// the dominance ordering must not be an artifact of one RNG stream.
func TestE1RobustAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep in -short mode")
	}
	for _, seed := range []int64{2, 5, 11} {
		r := mustLookup(t, "E1").Run(NewEnv(seed))
		full := r.Numbers["f1_xlf-full"]
		for _, single := range []string{"device-only", "network-only", "service-only"} {
			if full <= r.Numbers["f1_"+single] {
				t.Errorf("seed %d: xlf-full F1 %v not above %s %v", seed, full, single, r.Numbers["f1_"+single])
			}
		}
		if r.Numbers["precision_xlf-full"] < 0.99 {
			t.Errorf("seed %d: precision %v", seed, r.Numbers["precision_xlf-full"])
		}
	}
}

func TestE2ShapingTradeoff(t *testing.T) {
	r := mustLookup(t, "E2").Run(NewEnv(1))
	// Without shaping the adversary wins outright.
	if r.Numbers["recall_0.00"] < 0.99 || r.Numbers["ident_0.00"] < 0.8 {
		t.Errorf("unshaped adversary too weak: recall=%v ident=%v",
			r.Numbers["recall_0.00"], r.Numbers["ident_0.00"])
	}
	// Full shaping hides events completely.
	if r.Numbers["recall_1.00"] > 0.01 {
		t.Errorf("full shaping leaks events: recall=%v", r.Numbers["recall_1.00"])
	}
	// And costs real overhead.
	if r.Numbers["overhead_1.00"] <= r.Numbers["overhead_0.00"] {
		t.Error("shaping reported no overhead cost")
	}
	// Identification confidence is non-increasing from off to full.
	if r.Numbers["ident_1.00"] >= r.Numbers["ident_0.00"] {
		t.Errorf("identification not degraded: %v -> %v", r.Numbers["ident_0.00"], r.Numbers["ident_1.00"])
	}
}

func TestE3ProxyBeatsBaseline(t *testing.T) {
	r := mustLookup(t, "E3").Run(NewEnv(1))
	if r.Numbers["proxy_mean_ms"] >= r.Numbers["baseline_mean_ms"] {
		t.Errorf("proxy (%vms) not faster than baseline (%vms)",
			r.Numbers["proxy_mean_ms"], r.Numbers["baseline_mean_ms"])
	}
	// The gap should be large (LAN cache vs cloud RTT): at least 3x.
	if r.Numbers["baseline_mean_ms"]/r.Numbers["proxy_mean_ms"] < 3 {
		t.Errorf("proxy advantage below 3x: %v vs %v",
			r.Numbers["proxy_mean_ms"], r.Numbers["baseline_mean_ms"])
	}
}

func TestE4EncryptedDPIEquivalent(t *testing.T) {
	r := mustLookup(t, "E4").Run(NewEnv(1))
	if r.Numbers["equal_detections"] != 1 {
		t.Error("encrypted and plaintext paths disagree on detections")
	}
	if r.Numbers["recall"] < 0.99 {
		t.Errorf("recall = %v, want 1.0", r.Numbers["recall"])
	}
	if r.Numbers["plain_mbps"] <= r.Numbers["enc_mbps"] {
		t.Errorf("plaintext (%v MB/s) should outrun the encrypted path (%v MB/s)",
			r.Numbers["plain_mbps"], r.Numbers["enc_mbps"])
	}
}

func TestE5NoiseDegradesGracefully(t *testing.T) {
	r := mustLookup(t, "E5").Run(NewEnv(1))
	if r.Numbers["f1_noise_0.00"] < 0.99 {
		t.Errorf("clean F1 = %v, want 1.0", r.Numbers["f1_noise_0.00"])
	}
	if r.Numbers["f1_noise_0.35"] > r.Numbers["f1_noise_0.00"] {
		t.Error("noise improved detection (suspicious)")
	}
	if r.Numbers["acc_noise_0.10"] < 0.8 {
		t.Errorf("light-noise accuracy = %v, want >= 0.8", r.Numbers["acc_noise_0.10"])
	}
}

func TestE6FusionWins(t *testing.T) {
	r := mustLookup(t, "E6").Run(NewEnv(1))
	best := 0.0
	for _, k := range []string{"device-rbf", "network-rbf", "event-spectrum"} {
		if r.Numbers["acc_"+k] > best {
			best = r.Numbers["acc_"+k]
		}
	}
	if r.Numbers["acc_mkl"] <= best {
		t.Errorf("MKL (%v) does not beat best single kernel (%v)", r.Numbers["acc_mkl"], best)
	}
	if r.Numbers["purity"] < 0.99 {
		t.Errorf("community purity = %v, want 1.0", r.Numbers["purity"])
	}
	if r.Numbers["modularity"] < 0.3 {
		t.Errorf("modularity = %v, want > 0.3", r.Numbers["modularity"])
	}
}

func TestE7BridgeProperties(t *testing.T) {
	r := mustLookup(t, "E7").Run(NewEnv(1))
	// Cleartext leaks and is poisonable.
	if r.Numbers["visible_DNS"] == 0 || r.Numbers["poisoned_DNS"] != 1 {
		t.Errorf("cleartext DNS: visible=%v poisoned=%v", r.Numbers["visible_DNS"], r.Numbers["poisoned_DNS"])
	}
	// Both encrypted modes resist and hide device names.
	for _, mode := range []string{"DoT", "XLF-bridge"} {
		if r.Numbers["poisoned_"+mode] != 0 {
			t.Errorf("%s poisoned", mode)
		}
		if r.Numbers["visible_"+mode] >= r.Numbers["visible_DNS"] {
			t.Errorf("%s leaks as much as cleartext", mode)
		}
	}
	// The bridge's device cost is far below DoT-grade crypto.
	if r.Numbers["bulb_bridge_ms"]*5 > r.Numbers["bulb_dot_ms"] {
		t.Errorf("bridge cost %vms not <<5x DoT cost %vms",
			r.Numbers["bulb_bridge_ms"], r.Numbers["bulb_dot_ms"])
	}
}

func TestE8ContainmentStopsTheCampaign(t *testing.T) {
	r := mustLookup(t, "E8").Run(NewEnv(1))
	if r.Numbers["base_beacons"] == 0 || r.Numbers["base_flood"] == 0 {
		t.Error("unprotected campaign produced no traffic")
	}
	if r.Numbers["xlf_beacons"] != 0 {
		t.Errorf("beacons escaped XLF: %v", r.Numbers["xlf_beacons"])
	}
	if r.Numbers["xlf_flood"] != 0 {
		t.Errorf("flood packets escaped XLF: %v", r.Numbers["xlf_flood"])
	}
}

func TestE9StabilityShape(t *testing.T) {
	r := mustLookup(t, "E9").Run(NewEnv(1))
	if r.Numbers["false_per_device_day"] > 0.05 {
		t.Errorf("false alerts per benign device-day = %v, want ~0", r.Numbers["false_per_device_day"])
	}
	if r.Numbers["detected"] != 1 || r.Numbers["contained"] != 1 {
		t.Error("campaign not detected/contained over the long horizon")
	}
	if r.Numbers["detect_latency_s"] > 60 {
		t.Errorf("detection latency = %vs, want under a minute", r.Numbers["detect_latency_s"])
	}
}
