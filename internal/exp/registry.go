package exp

import "strings"

// Experiment is one registry entry: the descriptor exp.Run,
// cmd/xlf-bench and the tests iterate instead of hand-maintained switch
// statements. Run must be a pure function of its Env (the reproduction
// contract), so exp.Run may execute entries in any order and at any
// parallelism.
type Experiment struct {
	// ID is the report identifier: "T1"-"T3", "F1"-"F4", "E1"-"E10".
	ID string
	// Title matches the Result.Title the run renders.
	Title string
	// Tables lists the paper tables this entry reproduces (xlf-bench
	// -table resolves through it).
	Tables []int
	// Figures lists the paper figures this entry reproduces (xlf-bench
	// -figure resolves through it).
	Figures []int
	// Run executes the experiment under an explicit environment.
	Run func(*Env) *Result
}

// Kind classifies the entry for listings: "table", "figure" or
// "experiment".
func (e Experiment) Kind() string {
	switch {
	case len(e.Tables) > 0:
		return "table"
	case len(e.Figures) > 0:
		return "figure"
	default:
		return "experiment"
	}
}

// registry is the single source of truth for the experiment suite, in
// report order. Adding an experiment here is the whole integration: the
// exp.Run, cmd/xlf-bench (-all, -exp, -table, -figure, -list) and the
// determinism tests all iterate this slice.
var registry = []Experiment{
	{ID: "T1", Title: "Device-layer components (paper Table I) + crypto feasibility", Tables: []int{1}, Run: runTable1},
	{ID: "T2", Title: "Device-layer attack surface (paper Table II), executed", Tables: []int{2}, Run: runTable2},
	{ID: "T3", Title: "Lightweight cryptographic algorithms (paper Table III), measured", Tables: []int{3}, Run: runTable3},
	{ID: "F1", Title: "Generic layered IoT architecture", Figures: []int{1}, Run: func(*Env) *Result { return Figure1() }},
	{ID: "F2", Title: "IoT protocols on the TCP/IP stack", Figures: []int{2}, Run: func(*Env) *Result { return Figure2() }},
	{ID: "F3", Title: "IoT attack surface areas", Figures: []int{3}, Run: func(*Env) *Result { return Figure3() }},
	{ID: "F4", Title: "XLF cross-layer security design", Figures: []int{4}, Run: func(*Env) *Result { return Figure4() }},
	{ID: "E1", Title: "Cross-layer vs single-layer detection (per-device F1)", Run: runE1},
	{ID: "E2", Title: "Traffic shaping: adversary confidence vs bandwidth overhead", Run: runE2},
	{ID: "E3", Title: "Delegated authentication: XLF proxy vs Barreto baseline", Run: runE3},
	{ID: "E4", Title: "Encrypted DPI: plaintext vs searchable-encryption matching", Run: runE4},
	{ID: "E5", Title: "Behaviour DFA: spoof detection under fingerprint noise", Run: runE5},
	{ID: "E6", Title: "Core learning: MKL fusion and graph community detection", Run: runE6},
	{ID: "E7", Title: "DNS privacy: plain vs DoT vs XLF lightweight bridge", Run: runE7},
	{ID: "E8", Title: "Botnet campaign: unprotected vs XLF (containment timeline)", Run: runE8},
	{ID: "E9", Title: "Long-horizon stability: 3-day household, one campaign", Run: runE9},
	{ID: "E10", Title: "Smart-city scale: one kernel, 10^3..5*10^4 devices", Run: runE10},
}

// Registry returns the experiment descriptors in report order. The slice
// is a copy; callers may reorder or filter it freely.
func Registry() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Lookup resolves one descriptor by ID (case-insensitive).
func Lookup(id string) (Experiment, bool) {
	id = strings.ToUpper(strings.TrimSpace(id))
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ByTable resolves the entry reproducing paper table n.
func ByTable(n int) (Experiment, bool) {
	for _, e := range registry {
		for _, t := range e.Tables {
			if t == n {
				return e, true
			}
		}
	}
	return Experiment{}, false
}

// ByFigure resolves the entry reproducing paper figure n.
func ByFigure(n int) (Experiment, bool) {
	for _, e := range registry {
		for _, f := range e.Figures {
			if f == n {
				return e, true
			}
		}
	}
	return Experiment{}, false
}
