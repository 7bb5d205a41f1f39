// Package dpi implements XLF's network traffic monitoring (§IV-B2):
// signature rules in the style of Alhanahnah et al.'s cross-architecture
// IoT malware signatures, an Aho-Corasick multi-pattern matcher for
// cleartext payloads, and a BlindBox-style searchable-encryption path that
// lets the gateway match the same rules over encrypted traffic without
// breaking end-to-end security.
package dpi

// Aho-Corasick automaton over byte patterns. Built once per rule set,
// matched in O(len(payload) + matches).
type acNode struct {
	next map[byte]int32
	fail int32
	// out lists pattern indices terminating at this node.
	out []int32
}

// Matcher is an immutable multi-pattern matcher.
type Matcher struct {
	nodes    []acNode
	patterns [][]byte
}

// NewMatcher compiles patterns into an Aho-Corasick automaton. Empty
// patterns are ignored.
func NewMatcher(patterns [][]byte) *Matcher {
	m := &Matcher{nodes: []acNode{{next: make(map[byte]int32)}}}
	for _, p := range patterns {
		if len(p) == 0 {
			continue
		}
		m.patterns = append(m.patterns, append([]byte(nil), p...))
	}
	for i, p := range m.patterns {
		m.insert(p, int32(i))
	}
	m.buildFailLinks()
	return m
}

func (m *Matcher) insert(p []byte, idx int32) {
	cur := int32(0)
	for _, b := range p {
		nxt, ok := m.nodes[cur].next[b]
		if !ok {
			m.nodes = append(m.nodes, acNode{next: make(map[byte]int32)})
			nxt = int32(len(m.nodes) - 1)
			m.nodes[cur].next[b] = nxt
		}
		cur = nxt
	}
	m.nodes[cur].out = append(m.nodes[cur].out, idx)
}

func (m *Matcher) buildFailLinks() {
	// BFS from the root; root's children fail to root.
	queue := make([]int32, 0, len(m.nodes))
	for _, c := range m.nodes[0].next {
		m.nodes[c].fail = 0
		queue = append(queue, c)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for b, v := range m.nodes[u].next {
			queue = append(queue, v)
			f := m.nodes[u].fail
			for f != 0 {
				if nxt, ok := m.nodes[f].next[b]; ok {
					f = nxt
					goto found
				}
				f = m.nodes[f].fail
			}
			if nxt, ok := m.nodes[0].next[b]; ok && nxt != v {
				f = nxt
			} else {
				f = 0
			}
		found:
			m.nodes[v].fail = f
			m.nodes[v].out = append(m.nodes[v].out, m.nodes[f].out...)
		}
	}
}

// Match is one pattern occurrence.
type Match struct {
	// Pattern is the index into the compiled pattern list.
	Pattern int
	// End is the byte offset just past the occurrence.
	End int
}

// FindAll returns every pattern occurrence in data.
func (m *Matcher) FindAll(data []byte) []Match {
	var out []Match
	cur := int32(0)
	for i, b := range data {
		for {
			if nxt, ok := m.nodes[cur].next[b]; ok {
				cur = nxt
				break
			}
			if cur == 0 {
				break
			}
			cur = m.nodes[cur].fail
		}
		for _, pi := range m.nodes[cur].out {
			out = append(out, Match{Pattern: int(pi), End: i + 1})
		}
	}
	return out
}
