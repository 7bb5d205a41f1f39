package dpi

import (
	"errors"
	"fmt"

	"xlf/internal/obs"
)

// Severity ranks rule importance.
type Severity int

// Severities.
const (
	SevInfo Severity = iota + 1
	SevWarning
	SevCritical
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevCritical:
		return "critical"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Keyword is one pattern within a rule, optionally anchored at an offset
// ("offset information for each keyword", §IV-B2).
type Keyword struct {
	Pattern []byte
	// Offset anchors the keyword at a byte position; -1 means anywhere.
	Offset int
}

// Rule describes one attack signature: all keywords must match.
type Rule struct {
	ID       string
	Name     string
	Severity Severity
	Keywords []Keyword
}

// RuleSet is a compiled set of rules sharing one Aho-Corasick pass.
type RuleSet struct {
	rules   []Rule
	matcher *Matcher
	// patOwner[i] = (rule index, keyword index) for compiled pattern i.
	patOwner [][2]int
	tracer   *obs.Tracer
}

// SetTracer attaches an observability tracer; every rule match then emits
// a dpi-layer span timestamped by the tracer's bound simulation clock.
func (rs *RuleSet) SetTracer(t *obs.Tracer) { rs.tracer = t }

// NewRuleSet compiles rules. Rules must have at least one keyword, and
// keywords at least 4 bytes (the searchable-encryption window).
func NewRuleSet(rules []Rule) (*RuleSet, error) {
	rs := &RuleSet{rules: append([]Rule(nil), rules...)}
	var pats [][]byte
	ids := make(map[string]bool)
	for ri, r := range rs.rules {
		if r.ID == "" {
			return nil, fmt.Errorf("dpi: rule %d has empty ID", ri)
		}
		if ids[r.ID] {
			return nil, fmt.Errorf("dpi: duplicate rule ID %q", r.ID)
		}
		ids[r.ID] = true
		if len(r.Keywords) == 0 {
			return nil, fmt.Errorf("dpi: rule %q has no keywords", r.ID)
		}
		for ki, k := range r.Keywords {
			if len(k.Pattern) < TokenWindow {
				return nil, fmt.Errorf("dpi: rule %q keyword %d shorter than %d bytes", r.ID, ki, TokenWindow)
			}
			pats = append(pats, k.Pattern)
			rs.patOwner = append(rs.patOwner, [2]int{ri, ki})
		}
	}
	rs.matcher = NewMatcher(pats)
	return rs, nil
}

// Detection is a rule that matched a payload.
type Detection struct {
	Rule Rule
	// Offsets gives, per keyword, the end offset of its first match.
	Offsets []int
}

// MatchPlain evaluates the rule set against a cleartext payload: a rule
// fires when every keyword matches (honouring anchors).
func (rs *RuleSet) MatchPlain(payload []byte) []Detection {
	found := rs.matcher.FindAll(payload)
	// First-match end offset per (rule, keyword).
	first := make(map[[2]int]int)
	for _, mt := range found {
		owner := rs.patOwner[mt.Pattern]
		klen := len(rs.rules[owner[0]].Keywords[owner[1]].Pattern)
		start := mt.End - klen
		want := rs.rules[owner[0]].Keywords[owner[1]].Offset
		if want >= 0 && start != want {
			continue
		}
		if _, ok := first[owner]; !ok {
			first[owner] = mt.End
		}
	}
	var out []Detection
	for ri, r := range rs.rules {
		offsets := make([]int, len(r.Keywords))
		all := true
		for ki := range r.Keywords {
			end, ok := first[[2]int{ri, ki}]
			if !ok {
				all = false
				break
			}
			offsets[ki] = end
		}
		if all {
			out = append(out, Detection{Rule: r, Offsets: offsets})
			if rs.tracer != nil {
				rs.tracer.Emit(obs.LayerDPI, "match", "", r.ID)
			}
		}
	}
	return out
}

// ErrNoRules is returned when building detectors from an empty set.
var ErrNoRules = errors.New("dpi: empty rule set")

// IoTMalwareRules returns the built-in corpus modeled on Alhanahnah et
// al.: shell command sequences and C&C address strings observed in
// cross-architecture IoT malware, plus OTA tamper markers.
func IoTMalwareRules() []Rule {
	kw := func(s string) Keyword { return Keyword{Pattern: []byte(s), Offset: -1} }
	return []Rule{
		{
			ID: "mirai-loader", Name: "Mirai-style loader shell sequence", Severity: SevCritical,
			Keywords: []Keyword{kw("/bin/busybox"), kw("wget http://")},
		},
		{
			ID: "mirai-killer", Name: "competitor-killing shell commands", Severity: SevWarning,
			Keywords: []Keyword{kw("killall -9")},
		},
		{
			ID: "cc-beacon", Name: "hard-coded C&C address string", Severity: SevCritical,
			Keywords: []Keyword{kw("cnc.botnet.example")},
		},
		{
			ID: "telnet-bruteforce", Name: "telnet credential stuffing", Severity: SevWarning,
			Keywords: []Keyword{kw("enable\nsystem\nshell")},
		},
		{
			ID: "chmod-dropper", Name: "dropper chmod+exec sequence", Severity: SevCritical,
			Keywords: []Keyword{kw("chmod 777"), kw("./dvrHelper")},
		},
		{
			ID: "ota-unsigned", Name: "unsigned firmware image marker", Severity: SevCritical,
			Keywords: []Keyword{Keyword{Pattern: []byte("FWIMG-UNSIGNED"), Offset: 0}},
		},
		{
			ID: "exfil-pii", Name: "bulk PII exfiltration marker", Severity: SevWarning,
			Keywords: []Keyword{kw("ssn="), kw("dob=")},
		},
		{
			ID: "cleartext-creds", Name: "credentials over a cleartext channel", Severity: SevWarning,
			Keywords: []Keyword{kw("pass=")},
		},
		{
			ID: "psk-leak", Name: "WiFi PSK in unprotected provisioning", Severity: SevCritical,
			Keywords: []Keyword{kw("PSK=")},
		},
		{
			ID: "wifi-deauth", Name: "802.11 deauthentication burst", Severity: SevWarning,
			Keywords: []Keyword{kw("DEAUTH")},
		},
		{
			ID: "nop-sled", Name: "overflow filler / NOP-sled pattern", Severity: SevCritical,
			Keywords: []Keyword{kw("AAAAAAAAAAAAAAAA")},
		},
	}
}
