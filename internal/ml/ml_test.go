package ml

import (
	"math"
	"math/rand"
	"testing"
)

func TestKernelConstructors(t *testing.T) {
	if _, err := NewRBFKernel("bogus", 1); err == nil {
		t.Error("bad layer accepted")
	}
	if _, err := NewRBFKernel("device", -1); err == nil {
		t.Error("negative gamma accepted")
	}
	if _, err := NewSpectrumKernel(0); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestRBFKernelProperties(t *testing.T) {
	k, _ := NewRBFKernel("network", 0.5)
	a := Sample{Network: []float64{1, 2}}
	b := Sample{Network: []float64{1, 2}}
	c := Sample{Network: []float64{5, 9}}
	if v := k.K(a, b); math.Abs(v-1) > 1e-12 {
		t.Errorf("K(x,x) = %v, want 1", v)
	}
	if k.K(a, c) >= k.K(a, b) {
		t.Error("distant pair not less similar")
	}
	if k.K(a, Sample{}) != 0 {
		t.Error("empty view not neutral")
	}
	if k.K(a, b) != k.K(b, a) {
		t.Error("not symmetric")
	}
}

func TestSpectrumKernel(t *testing.T) {
	k, _ := NewSpectrumKernel(2)
	a := Sample{Events: []string{"on", "off", "on", "off"}}
	b := Sample{Events: []string{"on", "off", "on"}}
	c := Sample{Events: []string{"scan", "scan", "beacon"}}
	if v := k.K(a, a); math.Abs(v-1) > 1e-12 {
		t.Errorf("K(x,x) = %v, want 1", v)
	}
	if k.K(a, b) <= k.K(a, c) {
		t.Errorf("shared-bigram pair (%v) not more similar than disjoint (%v)", k.K(a, b), k.K(a, c))
	}
	if k.K(a, Sample{}) != 0 {
		t.Error("empty sequence not neutral")
	}
	// Distinct events must not alias across gram boundaries.
	x := Sample{Events: []string{"ab", "c"}}
	y := Sample{Events: []string{"a", "bc"}}
	if k.K(x, y) != 0 {
		t.Error("gram separator aliasing")
	}
}

// synthSamples builds a separable 2-class problem: malicious samples have
// high network fan-out and scan-ish event sequences.
func synthSamples(rng *rand.Rand, n int) []Sample {
	var out []Sample
	for i := 0; i < n; i++ {
		if i%2 == 0 { // benign
			out = append(out, Sample{
				Device:  []float64{rng.Float64() * 0.2, 1},
				Network: []float64{rng.Float64() * 0.3, rng.Float64() * 0.2},
				Events:  []string{"on", "off", "on", "off", "dim"},
				Label:   -1,
			})
		} else { // malicious
			out = append(out, Sample{
				Device:  []float64{0.8 + rng.Float64()*0.2, 0},
				Network: []float64{0.7 + rng.Float64()*0.3, 0.8 + rng.Float64()*0.2},
				Events:  []string{"scan", "scan", "beacon", "scan", "flood"},
				Label:   1,
			})
		}
	}
	return out
}

func TestMKLLearnsSeparableProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	train := synthSamples(rng, 40)
	test := synthSamples(rng, 40)

	kd, _ := NewRBFKernel("device", 1)
	kn, _ := NewRBFKernel("network", 1)
	ks, _ := NewSpectrumKernel(2)
	m, err := NewMKL(kd, kn, ks)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(train, 20); err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(test); acc < 0.95 {
		t.Errorf("accuracy = %v, want >= 0.95 on separable data", acc)
	}
	w := m.Weights()
	var sum float64
	for _, x := range w {
		if x < 0 {
			t.Errorf("negative weight %v", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v, want 1", sum)
	}
	if len(w) != 3 {
		t.Errorf("%d weights, want one per kernel (3)", len(w))
	}
}

func TestMKLBeatsUselessKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	train := synthSamples(rng, 40)
	// The "service" layer features are absent, making that kernel
	// uninformative; its alignment weight must be ~0.
	useless, _ := NewRBFKernel("service", 1)
	informative, _ := NewRBFKernel("network", 1)
	m, _ := NewMKL(useless, informative)
	if err := m.Fit(train, 20); err != nil {
		t.Fatal(err)
	}
	w := m.Weights()
	if w[0] > 0.1 {
		t.Errorf("useless kernel weight = %v, want ~0", w[0])
	}
	if w[1] < 0.9 {
		t.Errorf("informative kernel weight = %v, want ~1", w[1])
	}
}

func TestMKLValidation(t *testing.T) {
	if _, err := NewMKL(); err == nil {
		t.Error("no kernels accepted")
	}
	k, _ := NewRBFKernel("device", 1)
	m, _ := NewMKL(k)
	if err := m.Fit(nil, 5); err == nil {
		t.Error("empty training set accepted")
	}
	if err := m.Fit([]Sample{{Label: 0}}, 5); err == nil {
		t.Error("label 0 accepted")
	}
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	g.AddEdge("a", "b", 2)
	g.AddEdge("b", "c", 1)
	g.AddEdge("a", "a", 5) // self-loop ignored
	g.AddEdge("a", "c", 0) // non-positive ignored
	if got := len(g.nodes); got != 3 {
		t.Errorf("nodes = %d, want 3", got)
	}
	if d := g.Degree("b"); d != 3 {
		t.Errorf("degree(b) = %v, want 3", d)
	}
	if w := g.TotalWeight(); w != 3 {
		t.Errorf("total weight = %v, want 3", w)
	}
}

// twoCliques builds two dense 5-cliques joined by one weak edge.
func twoCliques() *Graph {
	g := NewGraph()
	left := []string{"l0", "l1", "l2", "l3", "l4"}
	right := []string{"r0", "r1", "r2", "r3", "r4"}
	for i := range left {
		for j := i + 1; j < len(left); j++ {
			g.AddEdge(left[i], left[j], 1)
			g.AddEdge(right[i], right[j], 1)
		}
	}
	g.AddEdge("l0", "r0", 0.1)
	return g
}

func TestLabelPropagationFindsCliques(t *testing.T) {
	g := twoCliques()
	labels := g.LabelPropagation(50)
	comms := Communities(labels)
	if len(comms) != 2 {
		t.Fatalf("communities = %d (%v), want 2", len(comms), comms)
	}
	for _, c := range comms {
		if len(c) != 5 {
			t.Errorf("community size = %d, want 5: %v", len(c), c)
		}
		prefix := c[0][0]
		for _, n := range c {
			if n[0] != prefix {
				t.Errorf("mixed community: %v", c)
			}
		}
	}
	if q := g.Modularity(labels); q < 0.3 {
		t.Errorf("modularity = %v, want > 0.3 for clean cliques", q)
	}
}

func TestLabelPropagationDeterministic(t *testing.T) {
	a := twoCliques().LabelPropagation(50)
	b := twoCliques().LabelPropagation(50)
	for n, l := range a {
		if b[n] != l {
			t.Fatalf("nondeterministic labels at %s", n)
		}
	}
}

func TestModularityOfTrivialPartition(t *testing.T) {
	g := twoCliques()
	// Everything in one community: modularity ~0.
	labels := make(map[string]string)
	for _, n := range g.nodes {
		labels[n] = "all"
	}
	if q := g.Modularity(labels); math.Abs(q) > 1e-9 {
		t.Errorf("single-community modularity = %v, want 0", q)
	}
	empty := NewGraph()
	if q := empty.Modularity(map[string]string{}); q != 0 {
		t.Errorf("empty graph modularity = %v", q)
	}
}

func TestFromSimilarity(t *testing.T) {
	k, _ := NewRBFKernel("network", 1)
	samples := []Sample{
		{Network: []float64{0, 0}},
		{Network: []float64{0.1, 0}},
		{Network: []float64{5, 5}},
	}
	g, err := FromSimilarity([]string{"a", "b", "c"}, samples, k, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree("a") == 0 || g.adj["a"]["c"] != 0 {
		t.Error("similarity edges wrong")
	}
	if _, err := FromSimilarity([]string{"x"}, samples, k, 0.5); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestCommunityOutliers(t *testing.T) {
	g := twoCliques()
	// Add a weakly-connected member to the left community.
	g.AddEdge("weak", "l0", 0.05)
	labels := g.LabelPropagation(50)
	// Force the weak node into the left community for the outlier check.
	labels["weak"] = labels["l0"]
	outliers := g.CommunityOutliers(labels, 2)
	found := false
	for _, o := range outliers {
		if o == "weak" {
			found = true
		}
		if o[0] == 'r' {
			t.Errorf("clique member %s flagged", o)
		}
	}
	if !found {
		t.Error("weak member not flagged as outlier")
	}
}
