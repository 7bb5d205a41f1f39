// Package analytics provides the statistical primitives behind XLF's
// security analytics (§IV-C3): streaming baselines (EWMA mean/variance),
// z-score anomaly detection, and multi-domain contextual correlation
// (device state x network rate x third-party context such as weather),
// which the XLF Core composes into its cross-layer evaluations.
package analytics

import (
	"fmt"
	"math"
)

// EWMA is an exponentially weighted moving average with a variance
// estimate, the standard streaming baseline for per-device metrics.
type EWMA struct {
	alpha    float64
	mean     float64
	variance float64
	n        int
}

// NewEWMA creates a baseline with smoothing factor alpha in (0, 1].
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("analytics: alpha %v out of (0,1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Update absorbs an observation.
func (e *EWMA) Update(v float64) {
	e.n++
	if e.n == 1 {
		e.mean = v
		return
	}
	d := v - e.mean
	e.mean += e.alpha * d
	e.variance = (1 - e.alpha) * (e.variance + e.alpha*d*d)
}

// Mean returns the current baseline.
func (e *EWMA) Mean() float64 { return e.mean }

// Std returns the baseline standard deviation.
func (e *EWMA) Std() float64 { return math.Sqrt(e.variance) }

// Count returns the number of observations absorbed.
func (e *EWMA) Count() int { return e.n }

// ZScore standardises v against the baseline. With too little history or
// zero variance it returns 0 (no judgement).
func (e *EWMA) ZScore(v float64) float64 {
	if e.n < 5 {
		return 0
	}
	sd := e.Std()
	if sd == 0 {
		if v == e.mean {
			return 0
		}
		return math.Inf(1)
	}
	return (v - e.mean) / sd
}

// Context is the third-party signal bundle of §IV-C3's example: outside
// temperature from a weather service and whether any resident's phone is
// home.
type Context struct {
	OutdoorTempF float64
	UserHome     bool
}

// ContextRule scores a (deviceID, event, value, context) observation in
// [0, 1]; 0 is normal. Rules encode cross-domain consistency: "window
// opened by the climate app while it is freezing outside and nobody is
// home" is suspicious even though every individual layer looks fine.
type ContextRule struct {
	Name  string
	Score func(deviceID, event string, value float64, ctx Context) float64
}

// Correlator applies contextual rules and keeps per-device baselines.
type Correlator struct {
	rules []ContextRule
}

// NewCorrelator creates a correlator with the given rules.
func NewCorrelator(rules []ContextRule) *Correlator {
	return &Correlator{rules: append([]ContextRule(nil), rules...)}
}

// Finding is one contextual anomaly.
type Finding struct {
	Rule     string
	DeviceID string
	Event    string
	Score    float64
}

// Evaluate runs every rule; findings with score > 0 are returned.
func (c *Correlator) Evaluate(deviceID, event string, value float64, ctx Context) []Finding {
	var out []Finding
	for _, r := range c.rules {
		if s := r.Score(deviceID, event, value, ctx); s > 0 {
			out = append(out, Finding{Rule: r.Name, DeviceID: deviceID, Event: event, Score: s})
		}
	}
	return out
}

// HomeRules returns the built-in contextual rules for the smart-home
// testbed, including the paper's thermostat/window abuse example.
func HomeRules() []ContextRule {
	return []ContextRule{
		{
			Name: "window-open-vs-weather",
			Score: func(deviceID, event string, value float64, ctx Context) float64 {
				// The §IV-C3 scenario: the climate automation opens the
				// window because the *indoor* temperature spiked; if the
				// outdoor reading is cold, someone is likely manipulating
				// the indoor sensor's environment.
				if event != "open" && event != "unlock" {
					return 0
				}
				if ctx.OutdoorTempF < 50 {
					s := (50 - ctx.OutdoorTempF) / 50
					if !ctx.UserHome {
						s += 0.3
					}
					return math.Min(1, s)
				}
				return 0
			},
		},
		{
			Name: "actuation-while-away",
			Score: func(deviceID, event string, value float64, ctx Context) float64 {
				if ctx.UserHome {
					return 0
				}
				switch event {
				case "unlock", "open", "disable":
					return 0.8
				default:
					return 0
				}
			},
		},
	}
}
