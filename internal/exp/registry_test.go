package exp

import (
	"strings"
	"testing"
)

// TestRegistryShape pins the registry as the single source of truth: one
// entry per report section, report order, resolvable by ID, and kind
// read from the ID prefix.
func TestRegistryShape(t *testing.T) {
	want := []string{"T1", "T2", "T3", "F1", "F2", "F3", "F4", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		e := reg[i]
		if e.ID != id {
			t.Errorf("entry %d is %s, want %s", i, e.ID, id)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete descriptor %+v", id, e)
		}
		got, ok := Lookup(id)
		if !ok || got.ID != id {
			t.Errorf("Lookup(%q) failed", id)
		}
	}
	for _, id := range []string{"T1", "T2", "T3"} {
		if k := mustLookup(t, id).Kind(); k != "table" {
			t.Errorf("%s kind = %q", id, k)
		}
	}
	for _, id := range []string{"F1", "F2", "F3", "F4"} {
		if k := mustLookup(t, id).Kind(); k != "figure" {
			t.Errorf("%s kind = %q", id, k)
		}
	}
	if _, ok := Lookup("E99"); ok {
		t.Error("Lookup(E99) resolved")
	}
	if e, ok := Lookup(" e4 "); !ok || e.ID != "E4" {
		t.Error("Lookup should be case- and space-insensitive")
	}
	if k := mustLookup(t, "E4").Kind(); k != "experiment" {
		t.Errorf("E4 kind = %q", k)
	}
}

func mustLookup(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("registry lost %s", id)
	}
	return e
}

// TestResultIDsMatchRegistry asserts every entry renders a Result carrying
// its own ID and title, which the artifact layer keys on, and that the
// rendered report carries each entry's section header. It reads the
// sequential full-registry run the scheduler matrix compares against.
func TestResultIDsMatchRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep in -short mode")
	}
	reg := Registry()
	results := sequentialRun(3)
	if len(results) != len(reg) {
		t.Fatalf("registry run returned %d results, want %d", len(results), len(reg))
	}
	out := Render(results)
	for i, r := range results {
		if r.ID != reg[i].ID {
			t.Errorf("%s rendered result ID %q", reg[i].ID, r.ID)
		}
		if r.Title != reg[i].Title {
			t.Errorf("%s rendered title %q, registry says %q", reg[i].ID, r.Title, reg[i].Title)
		}
		if header := "==== " + reg[i].ID + ": " + reg[i].Title + " ====\n"; !strings.Contains(out, header) {
			t.Errorf("render missing %q", header)
		}
	}
}
