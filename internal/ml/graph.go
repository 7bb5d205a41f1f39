package ml

import (
	"fmt"
	"math"
	"sort"
)

// Graph is a weighted undirected graph over string-identified nodes, built
// from behavioural similarity: the paper's §IV-D proposes grouping users
// or devices "running the same IoT devices and similar automation
// applications" into communities whose shared behaviour sharpens
// detection.
type Graph struct {
	adj   map[string]map[string]float64
	nodes []string
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{adj: make(map[string]map[string]float64)}
}

// AddNode ensures a node exists.
func (g *Graph) AddNode(id string) {
	if _, ok := g.adj[id]; !ok {
		g.adj[id] = make(map[string]float64)
		g.nodes = append(g.nodes, id)
	}
}

// AddEdge adds/updates an undirected weighted edge. Self-loops and
// non-positive weights are ignored.
func (g *Graph) AddEdge(a, b string, w float64) {
	if a == b || w <= 0 {
		return
	}
	g.AddNode(a)
	g.AddNode(b)
	g.adj[a][b] = w
	g.adj[b][a] = w
}

// Degree returns a node's weighted degree.
func (g *Graph) Degree(id string) float64 {
	var d float64
	for _, w := range g.adj[id] {
		d += w
	}
	return d
}

// TotalWeight returns the sum of edge weights (each edge once).
func (g *Graph) TotalWeight() float64 {
	var t float64
	for a, nbrs := range g.adj {
		for b, w := range nbrs {
			if a < b {
				t += w
			}
		}
	}
	return t
}

// FromSimilarity builds a graph connecting samples whose kernel similarity
// exceeds threshold. IDs index into the sample slice via ids[i].
func FromSimilarity(ids []string, samples []Sample, k Kernel, threshold float64) (*Graph, error) {
	if len(ids) != len(samples) {
		return nil, fmt.Errorf("ml: ids (%d) and samples (%d) mismatch", len(ids), len(samples))
	}
	g := NewGraph()
	for _, id := range ids {
		g.AddNode(id)
	}
	for i := range samples {
		for j := i + 1; j < len(samples); j++ {
			if w := k.K(samples[i], samples[j]); w > threshold {
				g.AddEdge(ids[i], ids[j], w)
			}
		}
	}
	return g, nil
}

// LabelPropagation detects communities: every node starts in its own
// community and repeatedly adopts the weight-heaviest label among its
// neighbours. Deterministic: nodes are processed in sorted order with
// lexicographic tie-breaks. Returns node -> community label.
func (g *Graph) LabelPropagation(maxIters int) map[string]string {
	labels := make(map[string]string, len(g.nodes))
	order := append([]string(nil), g.nodes...)
	sort.Strings(order)
	for _, n := range order {
		labels[n] = n
	}
	if maxIters <= 0 {
		maxIters = 50
	}
	for it := 0; it < maxIters; it++ {
		changed := false
		for _, n := range order {
			if len(g.adj[n]) == 0 {
				continue
			}
			weight := make(map[string]float64)
			for nbr, w := range g.adj[n] {
				weight[labels[nbr]] += w
			}
			// Deterministic argmax: highest weight, then smallest label.
			best := labels[n]
			bestW := weight[best]
			cands := make([]string, 0, len(weight))
			for l := range weight {
				cands = append(cands, l)
			}
			sort.Strings(cands)
			for _, l := range cands {
				if weight[l] > bestW {
					best, bestW = l, weight[l]
				}
			}
			if best != labels[n] {
				labels[n] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return labels
}

// Communities groups nodes by label, largest first.
func Communities(labels map[string]string) [][]string {
	byLabel := make(map[string][]string)
	for n, l := range labels {
		byLabel[l] = append(byLabel[l], n)
	}
	out := make([][]string, 0, len(byLabel))
	for _, members := range byLabel {
		sort.Strings(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
}

// Modularity scores a partition (Newman's Q in [-0.5, 1]); higher means
// denser within-community structure.
func (g *Graph) Modularity(labels map[string]string) float64 {
	m := g.TotalWeight()
	if m == 0 {
		return 0
	}
	var q float64
	for _, a := range g.nodes {
		for _, b := range g.nodes {
			if labels[a] != labels[b] {
				continue
			}
			w := g.adj[a][b]
			q += w - g.Degree(a)*g.Degree(b)/(2*m)
		}
	}
	return q / (2 * m)
}

// CommunityOutliers finds nodes whose connection into their own community
// is weak relative to the community average — §IV-D's "particular signals
// associated with events through correlations": a member behaving unlike
// its peers.
func (g *Graph) CommunityOutliers(labels map[string]string, factor float64) []string {
	type stat struct {
		sum float64
		n   int
	}
	internal := make(map[string]float64)
	commStat := make(map[string]*stat)
	for _, n := range g.nodes {
		var in float64
		for nbr, w := range g.adj[n] {
			if labels[nbr] == labels[n] {
				in += w
			}
		}
		internal[n] = in
		s := commStat[labels[n]]
		if s == nil {
			s = &stat{}
			commStat[labels[n]] = s
		}
		s.sum += in
		s.n++
	}
	var out []string
	for _, n := range g.nodes {
		s := commStat[labels[n]]
		if s.n < 3 {
			continue // too small to judge
		}
		avg := s.sum / float64(s.n)
		if avg > 0 && internal[n] < avg/math.Max(factor, 1) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
