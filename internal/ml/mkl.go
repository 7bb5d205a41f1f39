package ml

import (
	"errors"
	"fmt"
	"math"
)

// MKL combines base kernels with non-negative weights learned by
// kernel-target alignment (Cristianini et al.): weight_k is proportional
// to the alignment between kernel k's Gram matrix and the label matrix
// yy^T. This realises the paper's §IV-D claims: feature combination from
// heterogeneous sources, weights and classifier obtained together, and a
// technically sound (alignment-maximising) fusion.
type MKL struct {
	kernels []Kernel
	weights []float64
	// training set retained for the kernel classifier
	train  []Sample
	alphas []float64
	bias   float64
}

// NewMKL creates an untrained MKL model over base kernels.
func NewMKL(kernels ...Kernel) (*MKL, error) {
	if len(kernels) == 0 {
		return nil, errors.New("ml: MKL needs at least one kernel")
	}
	return &MKL{kernels: kernels}, nil
}

// Weights returns the learned kernel weights (after Fit).
func (m *MKL) Weights() []float64 { return append([]float64(nil), m.weights...) }

// Combined evaluates the weighted kernel sum for a pair.
func (m *MKL) Combined(a, b Sample) float64 {
	var s float64
	for i, k := range m.kernels {
		w := 1.0 / float64(len(m.kernels))
		if m.weights != nil {
			w = m.weights[i]
		}
		s += w * k.K(a, b)
	}
	return s
}

// Fit learns kernel weights by alignment and then trains a kernel
// perceptron on the combined kernel. Labels must be +1/-1.
func (m *MKL) Fit(train []Sample, epochs int) error {
	if len(train) == 0 {
		return errors.New("ml: empty training set")
	}
	for i, s := range train {
		if s.Label != 1 && s.Label != -1 {
			return fmt.Errorf("ml: sample %d label %d not in {+1,-1}", i, s.Label)
		}
	}
	n := len(train)

	// Gram matrices per kernel (centred alignment, simplified: raw
	// alignment with yy^T).
	grams := make([][][]float64, len(m.kernels))
	for ki, k := range m.kernels {
		g := make([][]float64, n)
		for i := 0; i < n; i++ {
			g[i] = make([]float64, n)
			for j := 0; j <= i; j++ {
				v := k.K(train[i], train[j])
				g[i][j] = v
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				g[i][j] = g[j][i]
			}
		}
		grams[ki] = g
	}

	// Alignment of each kernel with the label matrix.
	m.weights = make([]float64, len(m.kernels))
	var wsum float64
	for ki := range m.kernels {
		var dot, norm float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				y := float64(train[i].Label * train[j].Label)
				dot += grams[ki][i][j] * y
				norm += grams[ki][i][j] * grams[ki][i][j]
			}
		}
		a := 0.0
		if norm > 0 {
			a = dot / (math.Sqrt(norm) * float64(n))
		}
		if a < 0 {
			a = 0 // anti-aligned kernels are dropped, not negated
		}
		m.weights[ki] = a
		wsum += a
	}
	if wsum == 0 {
		// Degenerate: fall back to uniform weights.
		for i := range m.weights {
			m.weights[i] = 1 / float64(len(m.weights))
		}
	} else {
		for i := range m.weights {
			m.weights[i] /= wsum
		}
	}

	// Kernel perceptron on the combined Gram matrix.
	m.train = append([]Sample(nil), train...)
	m.alphas = make([]float64, n)
	m.bias = 0
	comb := func(i, j int) float64 {
		var s float64
		for ki := range m.kernels {
			s += m.weights[ki] * grams[ki][i][j]
		}
		return s
	}
	if epochs <= 0 {
		epochs = 10
	}
	for e := 0; e < epochs; e++ {
		mistakes := 0
		for i := 0; i < n; i++ {
			var f float64
			for j := 0; j < n; j++ {
				if m.alphas[j] != 0 {
					f += m.alphas[j] * float64(train[j].Label) * comb(i, j)
				}
			}
			f += m.bias
			if float64(train[i].Label)*f <= 0 {
				m.alphas[i]++
				m.bias += float64(train[i].Label)
				mistakes++
			}
		}
		if mistakes == 0 {
			break
		}
	}
	return nil
}

// Score returns the decision value for a sample (positive = malicious).
func (m *MKL) Score(s Sample) float64 {
	var f float64
	for j, t := range m.train {
		if m.alphas[j] != 0 {
			f += m.alphas[j] * float64(t.Label) * m.Combined(s, t)
		}
	}
	return f + m.bias
}

// Predict classifies a sample into {+1, -1}.
func (m *MKL) Predict(s Sample) int {
	if m.Score(s) > 0 {
		return 1
	}
	return -1
}

// Accuracy evaluates on a labelled set.
func (m *MKL) Accuracy(test []Sample) float64 {
	if len(test) == 0 {
		return 0
	}
	ok := 0
	for _, s := range test {
		if m.Predict(s) == s.Label {
			ok++
		}
	}
	return float64(ok) / float64(len(test))
}
