// Package behavior implements XLF's device-behaviour profiling (§IV-B3 and
// §IV-C2), modeled on HoMonit (Zhang et al., CCS 2018): events are
// fingerprinted as packet-size sequences and matched with Levenshtein
// distance; a deterministic finite automaton of normal operation (derived
// from the automation apps, or learned from traces for devices without
// apps) flags state-transition deviations such as spoofed events and
// misbehaving applications.
package behavior

import (
	"fmt"
	"math"

	"xlf/internal/device"
)

// Levenshtein computes the edit distance between two integer sequences
// (quantized packet sizes). It is the similarity measure HoMonit uses for
// wireless event fingerprints.
func Levenshtein(a, b []int) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Fingerprint is a labelled packet-size sequence for one device event.
type Fingerprint struct {
	Event string
	// Seq is the packet sizes in order, bucketed to blur MTU-level
	// jitter: HoMonit clusters similar sequences, and bucketing plays
	// that role deterministically.
	Seq []int
}

// Library holds the fingerprint clusters per event and classifies observed
// sequences by nearest-neighbour Levenshtein.
type Library struct {
	prints []Fingerprint
	// MaxDistance rejects classifications farther than this distance
	// (normalised by sequence length when Relative is set).
	MaxDistance int
	// Relative, when true, treats MaxDistance as a percentage (0-100) of
	// the candidate sequence length.
	Relative bool
}

// NewLibrary builds a library from training fingerprints.
func NewLibrary(prints []Fingerprint, maxDistance int, relative bool) (*Library, error) {
	if len(prints) == 0 {
		return nil, fmt.Errorf("behavior: empty fingerprint library")
	}
	for i, p := range prints {
		if p.Event == "" || len(p.Seq) == 0 {
			return nil, fmt.Errorf("behavior: fingerprint %d is incomplete", i)
		}
	}
	lib := &Library{MaxDistance: maxDistance, Relative: relative}
	for _, p := range prints {
		lib.prints = append(lib.prints, Fingerprint{Event: p.Event, Seq: append([]int(nil), p.Seq...)})
	}
	return lib, nil
}

// Classify returns the best-matching event for an observed quantized
// sequence, with its distance. ok=false when nothing is close enough.
func (l *Library) Classify(seq []int) (event string, distance int, ok bool) {
	best := math.MaxInt
	for _, p := range l.prints {
		d := Levenshtein(seq, p.Seq)
		if d < best {
			best = d
			event = p.Event
		}
	}
	limit := l.MaxDistance
	if l.Relative {
		limit = l.MaxDistance * max(1, len(seq)) / 100
	}
	if best > limit {
		return "", best, false
	}
	return event, best, true
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Deviation is one flagged observation.
type Deviation struct {
	DeviceID string
	Event    string
	// Kind classifies the anomaly: "illegal-transition" (event not legal
	// in the tracked state), "unknown-event" (no fingerprint match), or
	// "unseen-transition" (learned model only).
	Kind  string
	State device.State
	// Score in (0,1]; higher is more anomalous.
	Score float64
}

// Monitor tracks one device's state against its ground-truth automaton
// (from the automation apps / device model) and scores deviations.
type Monitor struct {
	deviceID string
	dfa      *device.Behavior
	state    device.State
}

// NewMonitor starts tracking a device from its automaton's initial state.
func NewMonitor(deviceID string, dfa *device.Behavior) (*Monitor, error) {
	if dfa == nil {
		return nil, fmt.Errorf("behavior: nil automaton for %s", deviceID)
	}
	return &Monitor{deviceID: deviceID, dfa: dfa, state: dfa.Initial}, nil
}

// Observe feeds one recovered event. Legal transitions advance the tracked
// state; illegal ones are returned as deviations without advancing (the
// device itself would have rejected them).
func (m *Monitor) Observe(event string) *Deviation {
	next, ok := m.dfa.Next(m.state, event)
	if !ok {
		return &Deviation{
			DeviceID: m.deviceID, Event: event, Kind: "illegal-transition",
			State: m.state, Score: 1.0,
		}
	}
	m.state = next
	return nil
}

// ObserveUnknown returns a sequence that matched no fingerprint as a
// deviation.
func (m *Monitor) ObserveUnknown(distance int) *Deviation {
	score := 1 - 1/float64(distance+1)
	return &Deviation{DeviceID: m.deviceID, Kind: "unknown-event", State: m.state, Score: score}
}

// LearnedModel is the fallback for devices without automation-derived
// automata (the paper's Amazon Echo point): a first-order transition model
// learned from benign traces. Transitions never seen in training are
// flagged.
type LearnedModel struct {
	counts map[string]map[string]int
	starts map[string]int
	total  int
}

// Learn builds a model from benign event traces. Traces are sessions that
// repeat in deployment, so the model also admits every boundary transition
// (any trace's last event -> any trace's first event): without the cycle
// closure, the second benign session of a day would be flagged at its
// first event.
func Learn(traces [][]string) *LearnedModel {
	m := &LearnedModel{
		counts: make(map[string]map[string]int),
		starts: make(map[string]int),
	}
	add := func(prev, cur string) {
		mm := m.counts[prev]
		if mm == nil {
			mm = make(map[string]int)
			m.counts[prev] = mm
		}
		mm[cur]++
		m.total++
	}
	var firsts, lasts []string
	for _, tr := range traces {
		if len(tr) == 0 {
			continue
		}
		m.starts[tr[0]]++
		firsts = append(firsts, tr[0])
		lasts = append(lasts, tr[len(tr)-1])
		for i := 1; i < len(tr); i++ {
			add(tr[i-1], tr[i])
		}
	}
	for _, l := range lasts {
		for _, f := range firsts {
			add(l, f)
		}
	}
	return m
}

// Seen reports whether the transition prev->cur occurred in training.
func (m *LearnedModel) Seen(prev, cur string) bool {
	return m.counts[prev][cur] > 0
}
