package behavior

import (
	"math/rand"
	"runtime"
	"testing"

	"xlf/internal/device"
)

func TestLevenshteinKnownValues(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{nil, nil, 0},
		{[]int{1, 2, 3}, nil, 3},
		{nil, []int{9}, 1},
		{[]int{1, 2, 3}, []int{1, 2, 3}, 0},
		{[]int{1, 2, 3}, []int{1, 9, 3}, 1},
		{[]int{1, 2, 3}, []int{2, 3}, 1},
		{[]int{1, 2, 3, 4}, []int{4, 3, 2, 1}, 4}, // k-i-t-t-e-n style full rework
		{[]int{5, 6}, []int{5, 7, 6}, 1},
	}
	for _, tc := range cases {
		if got := Levenshtein(tc.a, tc.b); got != tc.want {
			t.Errorf("Levenshtein(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// Metric properties: symmetry, identity, triangle inequality.
func TestLevenshteinIsAMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seq := func() []int {
		n := rng.Intn(8)
		s := make([]int, n)
		for i := range s {
			s[i] = rng.Intn(4)
		}
		return s
	}
	for trial := 0; trial < 300; trial++ {
		a, b, c := seq(), seq(), seq()
		dab, dba := Levenshtein(a, b), Levenshtein(b, a)
		if dab != dba {
			t.Fatalf("not symmetric: %v %v", a, b)
		}
		if Levenshtein(a, a) != 0 {
			t.Fatalf("identity failed: %v", a)
		}
		if dab > Levenshtein(a, c)+Levenshtein(c, b) {
			t.Fatalf("triangle violated: %v %v %v", a, b, c)
		}
		if dab > max(len(a), len(b)) {
			t.Fatalf("distance exceeds max length: %v %v", a, b)
		}
	}
}

func testLibrary(t *testing.T) *Library {
	t.Helper()
	lib, err := NewLibrary([]Fingerprint{
		{Event: "on", Seq: []int{2, 4, 2}},
		{Event: "off", Seq: []int{2, 4, 1}},
		{Event: "motion", Seq: []int{8, 8, 16, 4}},
	}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestLibraryClassify(t *testing.T) {
	lib := testLibrary(t)
	// Exact match.
	if ev, d, ok := lib.Classify([]int{2, 4, 2}); !ok || ev != "on" || d != 0 {
		t.Errorf("exact classify = %q %d %v", ev, d, ok)
	}
	// One edit away still matches.
	if ev, _, ok := lib.Classify([]int{2, 5, 2}); !ok || ev != "on" {
		t.Errorf("near classify = %q %v", ev, ok)
	}
	// Garbage rejected.
	if _, _, ok := lib.Classify([]int{99, 98, 97, 96, 95}); ok {
		t.Error("garbage sequence classified")
	}
}

func TestLibraryRelativeThreshold(t *testing.T) {
	lib, err := NewLibrary([]Fingerprint{{Event: "x", Seq: []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}}}, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	// 2 edits over length 10 = 20% <= 30%: accepted.
	if _, _, ok := lib.Classify([]int{1, 1, 2, 1, 1, 2, 1, 1, 1, 1}); !ok {
		t.Error("within relative threshold rejected")
	}
	// 5 edits = 50% > 30%: rejected.
	if _, _, ok := lib.Classify([]int{2, 2, 2, 2, 2, 1, 1, 1, 1, 1}); ok {
		t.Error("beyond relative threshold accepted")
	}
}

func TestLibraryValidation(t *testing.T) {
	if _, err := NewLibrary(nil, 1, false); err == nil {
		t.Error("empty library accepted")
	}
	if _, err := NewLibrary([]Fingerprint{{Event: "", Seq: []int{1}}}, 1, false); err == nil {
		t.Error("unlabelled fingerprint accepted")
	}
	if _, err := NewLibrary([]Fingerprint{{Event: "e", Seq: nil}}, 1, false); err == nil {
		t.Error("empty sequence accepted")
	}
}

func TestMonitorTracksAndFlags(t *testing.T) {
	bulb := device.NewSmartBulb("bulb-1")
	m, err := NewMonitor("bulb-1", bulb.Behavior)
	if err != nil {
		t.Fatal(err)
	}
	// Legal day: off -> on -> dim -> off.
	for _, ev := range []string{"on", "dim", "off"} {
		if d := m.Observe(ev); d != nil {
			t.Fatalf("legal event %q flagged: %+v", ev, d)
		}
	}
	// Spoofed event: "dim" is illegal in state off, the tracked state
	// the deviation reports.
	d := m.Observe("dim")
	if d == nil {
		t.Fatal("illegal transition not flagged")
	}
	if d.Kind != "illegal-transition" || d.Score != 1.0 || d.State != "off" {
		t.Errorf("deviation = %+v", d)
	}
	// The tracked state must not advance on rejected events.
	if d := m.Observe("dim"); d == nil || d.State != "off" {
		t.Errorf("state advanced on illegal event: %+v", d)
	}
	if d := m.Observe("on"); d != nil {
		t.Errorf("legal event after rejected ones flagged: %+v", d)
	}
}

// TestMonitorStateIsBounded: a bulb sees 10,000 illegal events, as a
// spoofing app would send on the E5 signal path. Each deviation leaves
// through Observe's return, so the Monitor's heap after all of them
// stays within monitorHeapSlack of its heap after the first 100.
func TestMonitorStateIsBounded(t *testing.T) {
	// A retained Deviation is over 70 bytes: 9,900 of them are about
	// 700 KB.
	const monitorHeapSlack = 256 << 10
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	bulb := device.NewSmartBulb("bulb-1")
	m, err := NewMonitor("bulb-1", bulb.Behavior)
	if err != nil {
		t.Fatal(err)
	}
	var base uint64
	for i := 0; i < 10000; i++ {
		if i == 100 {
			base = heap()
		}
		// "dim" is illegal in the bulb's initial state, which it never leaves.
		if m.Observe("dim") == nil {
			t.Fatalf("event %d not flagged", i)
		}
	}
	if grown := int64(heap()) - int64(base); grown >= monitorHeapSlack {
		t.Errorf("heap grew %d bytes over 9,900 deviations, want < %d: the Monitor retains deviations", grown, monitorHeapSlack)
	}
	runtime.KeepAlive(m)
}

func TestMonitorUnknownEvent(t *testing.T) {
	bulb := device.NewSmartBulb("b")
	m, _ := NewMonitor("b", bulb.Behavior)
	d := m.ObserveUnknown(7)
	if d == nil || d.Kind != "unknown-event" {
		t.Fatalf("deviation = %+v", d)
	}
	if d.Score <= 0 || d.Score > 1 {
		t.Errorf("score = %v, want (0,1]", d.Score)
	}
	if NewMonitorErr() == nil {
		t.Error("nil automaton accepted")
	}
}

// NewMonitorErr exercises the constructor error path.
func NewMonitorErr() error {
	_, err := NewMonitor("x", nil)
	return err
}

func TestLearnedModel(t *testing.T) {
	benign := [][]string{
		{"idle", "heat", "idle", "cool", "idle"},
		{"idle", "heat", "idle", "heat", "idle"},
	}
	m := Learn(benign)
	if !m.Seen("idle", "heat") || !m.Seen("heat", "idle") {
		t.Error("trained transitions not recorded")
	}
	if m.Seen("heat", "cool") {
		t.Error("phantom transition")
	}
}

// TestFingerprintNoiseRobustness simulates the E5 sweep in miniature:
// classification under increasing noise degrades but stays useful at
// HoMonit-like noise levels.
func TestFingerprintNoiseRobustness(t *testing.T) {
	lib, err := NewLibrary([]Fingerprint{
		{Event: "on", Seq: []int{2, 4, 2, 6, 2}},
		{Event: "off", Seq: []int{2, 4, 1, 1, 2}},
		{Event: "motion", Seq: []int{8, 8, 16, 4, 8}},
	}, 40, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	truth := []Fingerprint{
		{Event: "on", Seq: []int{2, 4, 2, 6, 2}},
		{Event: "off", Seq: []int{2, 4, 1, 1, 2}},
		{Event: "motion", Seq: []int{8, 8, 16, 4, 8}},
	}
	correct := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		want := truth[rng.Intn(len(truth))]
		seq := append([]int(nil), want.Seq...)
		// One random mutation (noise).
		if rng.Intn(2) == 0 {
			seq[rng.Intn(len(seq))] += rng.Intn(3) - 1
		}
		if got, _, ok := lib.Classify(seq); ok && got == want.Event {
			correct++
		}
	}
	if acc := float64(correct) / trials; acc < 0.9 {
		t.Errorf("accuracy under light noise = %.2f, want >= 0.9", acc)
	}
}
