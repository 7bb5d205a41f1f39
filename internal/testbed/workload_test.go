package testbed

import (
	"testing"
	"time"

	"xlf/internal/service"
)

func TestGenerateWorkloadShape(t *testing.T) {
	h := newHome(t)
	events := h.GenerateWorkload(WorkloadConfig{Days: 2, Intensity: 1})
	if len(events) < 60 {
		t.Fatalf("2-day workload has %d events, want a realistic volume", len(events))
	}
	// Sorted by time, inside the horizon.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("workload not time-sorted")
		}
	}
	// Diurnal: nights (00-06) much quieter than evenings (18-22).
	night, evening := 0, 0
	for _, e := range events {
		hour := int(e.At/time.Hour) % 24
		switch {
		case hour < 6:
			night++
		case hour >= 18 && hour < 22:
			evening++
		}
	}
	if night*3 >= evening {
		t.Errorf("diurnal shape off: night=%d evening=%d", night, evening)
	}
	// Only devices with routines, all known.
	for _, e := range events {
		if _, ok := h.Devices[e.Device]; !ok {
			t.Fatalf("workload references unknown device %s", e.Device)
		}
	}
}

func TestGenerateWorkloadDeterministic(t *testing.T) {
	gen := func() []ScheduledEvent {
		h := newHome(t)
		return h.GenerateWorkload(WorkloadConfig{Days: 1, Intensity: 1})
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("workloads diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestScheduleWorkloadRuns(t *testing.T) {
	h := newHome(t)
	events := h.GenerateWorkload(WorkloadConfig{Days: 1, Intensity: 1})
	h.ScheduleWorkload(events)
	got := 0
	h.Cloud.EventMonitor = func(service.Event) { got++ }
	if err := h.Run(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// A healthy fraction of interactions landed as cloud events (some
	// overlap-skips are expected).
	if got < len(events)/2 {
		t.Errorf("only %d/%d workload events reached the cloud", got, len(events))
	}
}

func TestWorkloadDefaults(t *testing.T) {
	h := newHome(t)
	events := h.GenerateWorkload(WorkloadConfig{})
	if len(events) == 0 {
		t.Fatal("zero-value config generated nothing")
	}
	last := events[len(events)-1].At
	if last > 24*time.Hour {
		t.Errorf("default horizon exceeded one day: %s", last)
	}
}
