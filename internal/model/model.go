// Package model describes DNNs as the serving system sees them: an ordered
// list of layers, each with a per-sample compute footprint (FLOPs) and an
// output activation size (bytes). That is all E3's profiler, optimizer and
// executor consume; the zoo in zoo.go instantiates the paper's models from
// their published architectural configurations.
package model

import "fmt"

// Layer is one splittable unit of a model (a transformer encoder block, a
// residual stage block, a decoder layer, ...).
type Layer struct {
	Name string
	// FLOPs is the per-sample compute cost of the layer.
	FLOPs float64
	// ActBytes is the per-sample size of the layer's output activation —
	// what must cross the wire if a split boundary follows this layer.
	ActBytes float64
	// WeightBytes is the layer's parameter footprint, read from device
	// memory once per batch pass (bandwidth-bound for small batches).
	WeightBytes float64
}

// Task categorizes a model's inference pattern.
type Task int

// Task kinds.
const (
	// Classification models run a single forward pass per input.
	Classification Task = iota
	// Autoregressive models run one forward pass per generated token.
	Autoregressive
)

func (t Task) String() string {
	switch t {
	case Classification:
		return "classification"
	case Autoregressive:
		return "autoregressive"
	default:
		return fmt.Sprintf("task(%d)", int(t))
	}
}

// Model is a DNN as a splittable layer sequence.
type Model struct {
	Name   string
	Layers []Layer
	Task   Task

	// Hidden is the model's hidden (embedding) dimension; ramp classifier
	// cost scales with it.
	Hidden int
	// Vocab is the output vocabulary size. For LM-head-style exit ramps
	// (CALM, Llama) each exit check pays a Hidden×Vocab projection, which
	// is why Figure 12's Llama-EE underperforms even vanilla.
	Vocab int
	// Classes is the classification label count (entropy-ramp head cost).
	Classes int
	// SeqLen is the representative input sequence length (tokens or
	// pixels-equivalent) the FLOPs figures assume.
	SeqLen int
	// AvgOutputTokens is the mean generation length for autoregressive
	// tasks (1 for classification).
	AvgOutputTokens float64
}

// NumLayers reports the number of splittable layers.
func (m *Model) NumLayers() int { return len(m.Layers) }

// TotalFLOPs is the per-sample compute of a full (no-exit) forward pass.
func (m *Model) TotalFLOPs() float64 {
	sum := 0.0
	for _, l := range m.Layers {
		sum += l.FLOPs
	}
	return sum
}

// Validate checks structural invariants; zoo constructors are covered by
// tests, user-assembled models should call it.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("model: empty name")
	}
	if len(m.Layers) == 0 {
		return fmt.Errorf("model %s: no layers", m.Name)
	}
	for i, l := range m.Layers {
		if l.FLOPs <= 0 {
			return fmt.Errorf("model %s: layer %d (%s) has non-positive FLOPs", m.Name, i, l.Name)
		}
		if l.ActBytes <= 0 {
			return fmt.Errorf("model %s: layer %d (%s) has non-positive activation size", m.Name, i, l.Name)
		}
	}
	if m.Hidden <= 0 {
		return fmt.Errorf("model %s: non-positive hidden dim", m.Name)
	}
	if m.Task == Autoregressive && m.AvgOutputTokens < 1 {
		return fmt.Errorf("model %s: autoregressive with AvgOutputTokens %v < 1", m.Name, m.AvgOutputTokens)
	}
	return nil
}
