// Package ml implements the two learning modules the paper places in the
// XLF Core (§IV-D): multi-kernel learning (MKL) to fuse features from
// heterogeneous layers, and graph-based community detection to group
// devices/homes with similar behaviour. Everything is stdlib-only and
// deterministic.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// Sample is one observation: per-layer numeric features plus an event
// sequence for the spectrum kernel.
type Sample struct {
	// Device, Network, Service are per-layer feature vectors; layers that
	// contributed nothing are empty.
	Device  []float64
	Network []float64
	Service []float64
	// Events is the observed event-label sequence (spectrum kernel).
	Events []string
	// Label is +1 (malicious) or -1 (benign) for training samples.
	Label int
}

// Kernel computes a similarity between two samples.
type Kernel interface {
	// Name identifies the kernel in reports.
	Name() string
	// K returns the kernel value for a pair of samples.
	K(a, b Sample) float64
}

// view selects a layer's feature vector.
type view func(Sample) []float64

// RBFKernel is exp(-gamma * ||x-y||^2) over one layer's features. Empty
// vectors contribute neutral similarity 0.
type RBFKernel struct {
	Layer string
	Gamma float64
	sel   view
}

// NewRBFKernel builds an RBF kernel over "device", "network" or "service"
// features.
func NewRBFKernel(layer string, gamma float64) (*RBFKernel, error) {
	sel, err := selector(layer)
	if err != nil {
		return nil, err
	}
	if gamma <= 0 {
		return nil, fmt.Errorf("ml: gamma %v must be positive", gamma)
	}
	return &RBFKernel{Layer: layer, Gamma: gamma, sel: sel}, nil
}

func selector(layer string) (view, error) {
	switch layer {
	case "device":
		return func(s Sample) []float64 { return s.Device }, nil
	case "network":
		return func(s Sample) []float64 { return s.Network }, nil
	case "service":
		return func(s Sample) []float64 { return s.Service }, nil
	default:
		return nil, fmt.Errorf("ml: unknown layer %q", layer)
	}
}

// Name implements Kernel.
func (k *RBFKernel) Name() string { return "rbf:" + k.Layer }

// K implements Kernel.
func (k *RBFKernel) K(a, b Sample) float64 {
	x, y := k.sel(a), k.sel(b)
	if len(x) == 0 || len(y) == 0 || len(x) != len(y) {
		return 0
	}
	var d2 float64
	for i := range x {
		d := x[i] - y[i]
		d2 += d * d
	}
	return math.Exp(-k.Gamma * d2)
}

// SpectrumKernel counts shared event p-grams, normalised; it is the
// standard string kernel for behavioural sequences (service-layer view).
type SpectrumKernel struct {
	P int
}

// NewSpectrumKernel builds a p-spectrum kernel (p >= 1).
func NewSpectrumKernel(p int) (*SpectrumKernel, error) {
	if p < 1 {
		return nil, errors.New("ml: spectrum p must be >= 1")
	}
	return &SpectrumKernel{P: p}, nil
}

// Name implements Kernel.
func (k *SpectrumKernel) Name() string { return fmt.Sprintf("spectrum:%d", k.P) }

func (k *SpectrumKernel) grams(events []string) map[string]int {
	out := make(map[string]int)
	for i := 0; i+k.P <= len(events); i++ {
		key := ""
		for j := 0; j < k.P; j++ {
			key += events[i+j] + "\x00"
		}
		out[key]++
	}
	return out
}

// K implements Kernel: normalised p-gram intersection.
func (k *SpectrumKernel) K(a, b Sample) float64 {
	ga, gb := k.grams(a.Events), k.grams(b.Events)
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	var dot, na, nb float64
	for g, ca := range ga {
		na += float64(ca * ca)
		if cb, ok := gb[g]; ok {
			dot += float64(ca * cb)
		}
	}
	for _, cb := range gb {
		nb += float64(cb * cb)
	}
	return dot / math.Sqrt(na*nb)
}
