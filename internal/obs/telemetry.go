package obs

import "time"

// Telemetry is one run's sim-clock telemetry stack: a Rollup over the
// run's Registry, and a DetectionTracker whose SLO breaches fire a
// FlightRecorder. The harness drives Tick once per window from its
// simulation kernel (with zero jitter, so the observed run is not
// perturbed) and marks injections and alerts on Detections.
type Telemetry struct {
	Registry   *Registry
	Rollup     *Rollup
	Detections *DetectionTracker
	Recorder   *FlightRecorder
}

// NewTelemetry builds the stack over reg (a fresh registry when nil),
// rolled up every interval, with the given detection-latency SLO
// (DefaultDetectionSLO when slo <= 0).
func NewTelemetry(reg *Registry, interval, slo time.Duration) *Telemetry {
	if reg == nil {
		reg = NewRegistry()
	}
	t := &Telemetry{
		Registry:   reg,
		Rollup:     NewRollup(reg, interval, 0),
		Detections: NewDetectionTracker(reg, slo),
		Recorder:   NewFlightRecorder(0, 0),
	}
	t.Detections.SetRecorder(t.Recorder)
	return t
}

// Tick closes the window ending at now: it rolls up the registry, then
// cuts a flight-recorder dump if anything triggered during the window.
func (t *Telemetry) Tick(now time.Duration) {
	t.Rollup.Tick(now)
	t.Recorder.Flush(now)
}
