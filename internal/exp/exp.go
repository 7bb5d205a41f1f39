// Package exp contains the reproduction experiments: the regeneration of
// every table and figure in the paper (T1-T3, F1-F4) and the quantitative
// experiments the paper motivates but does not report (E1-E10; see
// DESIGN.md's per-experiment index). Each experiment is a pure function of
// its seed, shared between cmd/xlf-bench and the root benchmarks.
package exp

import (
	"fmt"
	"strings"
	"time"

	"xlf/internal/attack"
	"xlf/internal/service"
)

// Result is one experiment's rendered output plus headline numbers for
// programmatic assertions.
type Result struct {
	ID     string
	Title  string
	Output string
	// Numbers holds headline metrics by name for tests/benches.
	Numbers map[string]float64
}

func (r *Result) String() string {
	return fmt.Sprintf("==== %s: %s ====\n%s", r.ID, r.Title, r.Output)
}

// num records a headline metric.
func (r *Result) num(k string, v float64) {
	if r.Numbers == nil {
		r.Numbers = make(map[string]float64)
	}
	r.Numbers[k] = v
}

// vulnerableFlaws is the legacy-platform configuration XLF protects.
func vulnerableFlaws() service.Flaws {
	return service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true}
}

// scenarioAttacks returns the composite attack campaign used by the E1/E8
// scenario, with its ground-truth victim set.
func scenarioAttacks() ([]attack.Attack, map[string]bool) {
	atks := []attack.Attack{
		&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 15 * time.Second},
		&attack.FirmwareModulation{Target: "cam-1"},
		&attack.BufferOverflow{Target: "wallpad-1", PayloadLen: 1024},
		&attack.RogueApp{
			AppID: "free-wallpaper", CoverDevice: "window-1", CoverCap: "contact",
			TargetDevice: "window-1", TargetCommand: "unlock",
		},
		&attack.MaliciousMail{Target: "fridge-1", Burst: 40},
	}
	victims := map[string]bool{
		"cam-1":     true, // mirai + firmware
		"wallpad-1": true,
		"window-1":  true,
		"fridge-1":  true,
	}
	return atks, victims
}

// Render formats a set of results as one report.
func Render(results []*Result) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	return b.String()
}
