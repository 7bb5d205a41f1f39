package analysis

// This file is the one table the ISSUE/DESIGN architecture lives in: the
// XLF layer DAG plus the package sets the determinism and errdrop
// contracts cover. cmd/xlf-vet and the CI gate both consume XLFAnalyzers;
// changing the architecture means changing this table in the same commit.

// XLFModule is the module path the rules apply to.
const XLFModule = "xlf"

// XLFLayerTable is DESIGN.md §2 compiled into data: every package's
// complete set of allowed intra-module imports (module-relative; "." is
// the root xlf facade package, "*" grants everything). The shape encodes
// the XLF layering:
//
//   - substrates (sim, metrics, proto, lwc, ml) import nothing;
//   - layer functions import only their own substrate — device-layer
//     packages (device, channel) never see service-layer ones (service,
//     xauth, analytics) and vice versa;
//   - only the XLF Core and the root facade couple layers;
//   - harnesses (attack, testbed, exp) sit above the layers;
//   - internal packages never import cmd/* or examples/* (no entry
//     grants them, so the DAG forbids it structurally).
var XLFLayerTable = map[string][]string{
	// Root facade: assembles every layer around the Core.
	".": {
		"internal/analytics", "internal/behavior", "internal/core",
		"internal/dpi", "internal/ids", "internal/netsim", "internal/obs",
		"internal/service", "internal/shaping", "internal/testbed",
		"internal/xauth",
	},

	// Substrates: leaves of the DAG. obs is the observability substrate:
	// importable from every layer (it imports nothing, so no cycles).
	"internal/obs":     {},
	"internal/sim":     {"internal/obs"},
	"internal/metrics": {},
	"internal/proto":   {},
	"internal/lwc":     {},
	"internal/ml":      {},

	// Device layer.
	"internal/device":  {"internal/lwc"},
	"internal/channel": {"internal/device", "internal/lwc"},

	// Network layer.
	"internal/netsim":  {"internal/obs", "internal/sim"},
	"internal/dnsp":    {"internal/channel", "internal/lwc", "internal/netsim"},
	"internal/ids":     {"internal/netsim"},
	"internal/shaping": {"internal/netsim", "internal/obs", "internal/sim"},
	"internal/dpi":     {"internal/obs"},
	// behavior watches device DFAs over network traces: it may read both.
	"internal/behavior": {"internal/device", "internal/netsim"},

	// Service layer.
	"internal/xauth":     {"internal/obs"},
	"internal/service":   {"internal/lwc", "internal/xauth"},
	"internal/analytics": {},

	// The XLF Core: the only layer-coupling component besides the facade.
	"internal/core": {"internal/netsim", "internal/obs"},

	// Harnesses above the layers.
	"internal/attack": {
		"internal/device", "internal/netsim", "internal/obs",
		"internal/service", "internal/sim",
	},
	"internal/testbed": {
		"internal/attack", "internal/channel", "internal/device",
		"internal/lwc", "internal/netsim", "internal/obs",
		"internal/service", "internal/sim",
	},
	"internal/exp": {
		".", "internal/analytics", "internal/attack", "internal/behavior",
		"internal/channel", "internal/core", "internal/device",
		"internal/dnsp", "internal/dpi", "internal/lwc",
		"internal/metrics", "internal/ml", "internal/netsim",
		"internal/obs", "internal/proto", "internal/service",
		"internal/shaping", "internal/sim", "internal/testbed",
		"internal/xauth",
	},

	// Tooling: the analyzers import nothing; the driver imports them.
	"internal/analysis": {},

	// Binaries and examples: leaves at the top of the DAG.
	"cmd/xlf-attack": {".", "internal/attack", "internal/service"},
	"cmd/xlf-bench":  {"internal/exp", "internal/obs"},
	"cmd/xlf-sim":    {".", "internal/analytics", "internal/attack", "internal/service"},
	"cmd/xlf-trace":  {"internal/obs"},
	"cmd/xlf-vet":    {"internal/analysis"},

	"examples/botnet":         {".", "internal/attack", "internal/netsim", "internal/service"},
	"examples/quickstart":     {".", "internal/attack", "internal/service"},
	"examples/smartcity":      {"internal/obs", "internal/testbed"},
	"examples/smarthome":      {".", "internal/analytics", "internal/attack", "internal/service"},
	"examples/trafficprivacy": {"internal/netsim", "internal/shaping", "internal/sim"},
}

// XLFDeterministicPackages are the simulation/experiment reproduction
// paths: no wall-clock reads, no global math/rand (DESIGN.md §5).
var XLFDeterministicPackages = []string{
	"xlf",
	"xlf/internal/attack",
	"xlf/internal/exp",
	"xlf/internal/netsim",
	"xlf/internal/obs",
	"xlf/internal/shaping",
	"xlf/internal/sim",
	"xlf/internal/testbed",
}

// XLFMapOrderSinks are the calls whose argument order is observable
// output for the maporder rule: trace emits, report-table rows and
// Core signal ingestion — the surfaces the replay hash and the paper's
// tables are built from.
var XLFMapOrderSinks = []TaintRef{
	{Pkg: "xlf/internal/core", Recv: "Core", Name: "Ingest"},
	{Pkg: "xlf/internal/obs", Recv: "Tracer", Name: "Emit"},
	{Pkg: "xlf/internal/obs", Recv: "Tracer", Name: "EmitAt"},
	{Pkg: "xlf/internal/obs", Recv: "Tracer", Name: "EmitSpan"},
	{Pkg: "xlf/internal/metrics", Recv: "Table", Name: "AddRow"},
	{Pkg: "fmt", Name: "Fprintf"},
	{Pkg: "fmt", Name: "Fprintln"},
	{Pkg: "fmt", Name: "Printf"},
	{Pkg: "fmt", Name: "Println"},
}

// XLFSecurityPackages are the packages where a dropped error converts a
// security failure into silent success. metrics and analytics are
// included because a silently-missing observation skews the detection
// statistics the paper's evaluation rests on.
var XLFSecurityPackages = []string{
	"xlf/internal/analytics",
	"xlf/internal/channel",
	"xlf/internal/dnsp",
	"xlf/internal/lwc",
	"xlf/internal/metrics",
	"xlf/internal/xauth",
}

// XLFPlaintextEscape is the §III/§IV cross-layer invariant compiled into
// a dataflow rule: device-layer payload bytes must pass through the
// channel layer's lightweight encryption before any network-layer send.
// Legal imports are not enough — the *data* must take the sealed path.
var XLFPlaintextEscape = TaintRule{
	RuleName: "plaintextescape",
	RuleDoc:  "device payload bytes must be sealed by the lwc channel before reaching a netsim send",
	Tainted:  "plaintext device payload",
	Advice:   "seal it with the device's negotiated channel session",
	Sources: []TaintRef{
		{Pkg: "xlf/internal/device", Name: "NewPayload"},
	},
	Sanitizers: []TaintRef{
		{Pkg: "xlf/internal/channel", Recv: "Session", Name: "Seal"},
	},
	Sinks: []TaintRef{
		{Pkg: "xlf/internal/netsim", Recv: "Network", Name: "Send"},
		{Pkg: "xlf/internal/netsim", Recv: "Network", Name: "Broadcast"},
		{Pkg: "xlf/internal/netsim", Recv: "Gateway", Name: "SendOut"},
	},
}

// XLFSecretLeak keeps xauth/lwc key and token material out of
// observability surfaces: fmt/log formatting, error construction and
// metrics/analytics labels. Redact is the sanctioned display form.
var XLFSecretLeak = TaintRule{
	RuleName: "secretleak",
	RuleDoc:  "xauth token/key material must not flow into fmt/log formatting, errors or metrics labels",
	Tainted:  "secret token/key material",
	Advice:   "log the xauth.Redact form instead",
	Sources: []TaintRef{
		{Pkg: "xlf/internal/xauth", Recv: "Signer", Name: "Issue"},
	},
	Sanitizers: []TaintRef{
		{Pkg: "xlf/internal/xauth", Name: "Redact"},
	},
	Sinks: []TaintRef{
		{Pkg: "fmt", Name: "Errorf"},
		{Pkg: "fmt", Name: "Sprintf"},
		{Pkg: "fmt", Name: "Sprint"},
		{Pkg: "fmt", Name: "Sprintln"},
		{Pkg: "fmt", Name: "Printf"},
		{Pkg: "fmt", Name: "Print"},
		{Pkg: "fmt", Name: "Println"},
		{Pkg: "log", Name: "Printf"},
		{Pkg: "log", Name: "Print"},
		{Pkg: "log", Name: "Println"},
		{Pkg: "log", Name: "Fatalf"},
		{Pkg: "log", Name: "Fatal"},
		{Pkg: "xlf/internal/metrics", Recv: "Table", Name: "AddRow"},
		{Pkg: "xlf/internal/analytics", Recv: "Correlator", Name: "Evaluate"},
	},
}

// XLFCryptoConfig is the crypto-consumer table the cryptomisuse rule
// enforces. Lightweight ciphers (PRESENT, TEA, ...) take 64/80-bit keys
// by design, so their minimum is 8 bytes; the channel/xauth entry points
// carry the paper's 128-bit floor. The simulation's fixed demo keys are
// waived inline with //xlf:allow-cryptomisuse and a justification.
var XLFCryptoConfig = CryptoConfig{
	Keys: []CryptoKeyCall{
		{Pkg: "xlf/internal/lwc", Name: "NewDES", KeyArg: 0, MinKeyLen: 8},
		{Pkg: "xlf/internal/lwc", Name: "NewDESL", KeyArg: 0, MinKeyLen: 8},
		{Pkg: "xlf/internal/lwc", Name: "NewTripleDES", KeyArg: 0, MinKeyLen: 16},
		{Pkg: "xlf/internal/lwc", Name: "NewHIGHT", KeyArg: 0, MinKeyLen: 16},
		{Pkg: "xlf/internal/lwc", Name: "NewHummingbird", KeyArg: 0, MinKeyLen: 16},
		{Pkg: "xlf/internal/lwc", Name: "NewHummingbird2", KeyArg: 0, MinKeyLen: 16},
		{Pkg: "xlf/internal/lwc", Name: "NewIceberg", KeyArg: 0, MinKeyLen: 8},
		{Pkg: "xlf/internal/lwc", Name: "NewLEA", KeyArg: 0, MinKeyLen: 16},
		{Pkg: "xlf/internal/lwc", Name: "NewPRESENT", KeyArg: 0, MinKeyLen: 8},
		{Pkg: "xlf/internal/lwc", Name: "NewPride", KeyArg: 0, MinKeyLen: 8},
		{Pkg: "xlf/internal/lwc", Name: "NewRC5", KeyArg: 0, MinKeyLen: 8},
		{Pkg: "xlf/internal/lwc", Name: "NewSEED", KeyArg: 0, MinKeyLen: 16},
		{Pkg: "xlf/internal/lwc", Name: "NewTEA", KeyArg: 0, MinKeyLen: 16},
		{Pkg: "xlf/internal/lwc", Name: "NewXTEA", KeyArg: 0, MinKeyLen: 16},
		{Pkg: "xlf/internal/lwc", Name: "NewTWINE", KeyArg: 0, MinKeyLen: 8},
		{Pkg: "xlf/internal/lwc", Recv: "Registry", Name: "New", KeyArg: 1, MinKeyLen: 8},
		{Pkg: "xlf/internal/channel", Name: "New", KeyArg: 1, MinKeyLen: 16},
		{Pkg: "xlf/internal/xauth", Name: "NewAuthority", KeyArg: 0, MinKeyLen: 16},
		{Pkg: "xlf/internal/xauth", Name: "NewSigner", KeyArg: 0, MinKeyLen: 16},
		{Pkg: "xlf/internal/dpi", Name: "NewTokenizer", KeyArg: 0, MinKeyLen: 16},
		{Pkg: "crypto/hmac", Name: "New", KeyArg: 1, MinKeyLen: 16},
	},
	Nonces: []CryptoNonceCall{
		// AEAD-shaped Seal(dst, nonce, plaintext, additional).
		{Name: "Seal", NArgs: 4, NonceArg: 1},
	},
	RandPkgs: []string{"math/rand", "math/rand/v2"},
}

// XLFAnalyzers returns the full rule set configured for this
// repository. Every rule reads one module model per run (NewModule), so
// the module is type-checked and its call edges resolved exactly once.
// DESIGN.md §6 gives the invariant each rule guards.
func XLFAnalyzers() []Analyzer {
	out := []Analyzer{
		NewLayerCheck(XLFModule, XLFLayerTable),
		NewDeterminism(XLFDeterministicPackages),
		NewErrDrop(XLFSecurityPackages),
		NewCryptoMisuse(XLFCryptoConfig),
		NewHotPathAlloc(), // DESIGN.md §10
		// Interprocedural determinism layer (DESIGN.md §11).
		NewMapOrder(XLFDeterministicPackages, XLFMapOrderSinks),
	}
	return append(out, NewTaintSuite(XLFPlaintextEscape, XLFSecretLeak)...)
}
