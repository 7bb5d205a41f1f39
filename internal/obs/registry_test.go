package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("core.ingested")
	c.Inc()
	c.Add(2)
	if r.Counter("core.ingested") != c {
		t.Error("second Counter lookup returned a different instrument")
	}
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	h := r.Histogram("ingest.ns")
	for _, v := range []uint64{0, 1, 3, 3, 900} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 907 {
		t.Errorf("hist count=%d sum=%d", h.Count(), h.Sum())
	}
	buckets := h.Buckets()
	// 0 -> bucket le 0; 1 -> le 1; 3,3 -> le 3; 900 -> le 1023.
	want := []HistBucket{{0, 1}, {1, 1}, {3, 2}, {1023, 1}}
	if len(buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", buckets, want)
	}
	for i := range want {
		if buckets[i] != want[i] {
			t.Errorf("bucket %d = %v, want %v", i, buckets[i], want[i])
		}
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c, h := r.Counter("x"), r.Histogram("z")
	c.Inc()
	c.Add(5)
	h.Observe(7)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Buckets() != nil {
		t.Error("nil instruments retained state")
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot = %+v", s)
	}
}

// TestSnapshotSorted pins the determinism contract: snapshots are
// name-sorted regardless of creation order.
func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name).Inc()
		r.Histogram(name).Observe(1)
	}
	s := r.Snapshot()
	for i, want := range []string{"alpha", "mid", "zeta"} {
		if s.Counters[i].Name != want || s.Histograms[i].Name != want {
			t.Fatalf("snapshot not sorted: %+v", s)
		}
	}
	str := s.String()
	for _, line := range []string{"counter alpha 1", "counter mid 1", "hist zeta count=1 sum=1"} {
		if !strings.Contains(str, line) {
			t.Errorf("String() missing %q:\n%s", line, str)
		}
	}
}

// TestRegistryConcurrent is the obs race smoke test: parallel get-or-
// create + increments against concurrent snapshots, with a final-count
// invariant. Run under -race in CI.
func TestRegistryConcurrent(t *testing.T) {
	const workers, perWorker = 8, 400
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared").Inc()
				r.Histogram("lat").Observe(uint64(i))
				if w == 0 && i%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat").Count(); got != workers*perWorker {
		t.Errorf("hist count = %d, want %d", got, workers*perWorker)
	}
}
