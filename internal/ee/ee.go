// Package ee implements early-exit networks over the model zoo: exit-ramp
// placement, exit policies (entropy, confidence, patience), per-sample exit
// depth, ramp compute overheads, and the §3.4 exit-wrapper that lets E3
// disable unproductive ramps.
//
// Exit semantics. Each input carries a latent difficulty d ∈ [0,1]. Under a
// policy's *default* threshold, the input becomes exit-ready at depth
// fraction d of the model — i.e. difficulty is calibrated as the exit depth
// itself, so dataset distributions (workload package) directly encode the
// exit behaviour the paper measured. Tightening or loosening the threshold
// rescales that depth: a looser entropy bound (higher threshold) lets
// inputs exit earlier, a tighter one later. An input actually exits at the
// first *active* ramp at or past its ready depth; if none exists it runs
// the full model.
package ee

import (
	"fmt"
	"math"
	"sort"

	"e3/internal/model"
)

// PolicyKind distinguishes exit-decision mechanisms (§2.2).
type PolicyKind int

// Supported ramp decision mechanisms.
const (
	// Entropy exits when prediction entropy falls below Threshold
	// (DeeBERT-style). Ramps are independent.
	Entropy PolicyKind = iota
	// Confidence exits when softmax confidence exceeds Threshold
	// (BranchyNet, CALM, Llama). Ramps are independent.
	Confidence
	// Patience exits after Patience consecutive ramps agree
	// (PABEE-style). Ramps are dependent: decisions use earlier ramps.
	Patience
)

func (k PolicyKind) String() string {
	switch k {
	case Entropy:
		return "entropy"
	case Confidence:
		return "confidence"
	case Patience:
		return "patience"
	default:
		return fmt.Sprintf("policy(%d)", int(k))
	}
}

// Policy is an exit decision rule.
type Policy struct {
	Kind PolicyKind
	// Threshold is the entropy bound (exit when entropy < Threshold) or
	// confidence bound (exit when confidence ≥ Threshold).
	Threshold float64
	// RefThreshold anchors calibration: at Threshold == RefThreshold an
	// input's exit-ready depth equals its difficulty.
	RefThreshold float64
	// Patience and RefPatience play the same roles for Patience policies.
	Patience, RefPatience int
}

// validate reports whether the policy's thresholds are usable: entropy
// and confidence bounds must lie strictly inside (0,1), and the kind must
// be known.
func (p Policy) validate() error {
	switch p.Kind {
	case Entropy, Confidence:
		if p.Threshold <= 0 || p.Threshold >= 1 || p.RefThreshold <= 0 || p.RefThreshold >= 1 {
			return fmt.Errorf("ee: %s thresholds must lie in (0,1): %+v", p.Kind, p)
		}
	case Patience:
	default:
		return fmt.Errorf("ee: unknown policy kind %d", p.Kind)
	}
	return nil
}

// DepthScale converts the policy's threshold into a multiplier on an
// input's exit-ready depth. 1 at the reference threshold. It panics on a
// policy New would reject.
func (p Policy) DepthScale() float64 {
	if err := p.validate(); err != nil {
		panic(err.Error())
	}
	switch p.Kind {
	case Entropy:
		// Entropy decays roughly exponentially with depth, so the depth at
		// which it crosses a bound θ scales with ln(θ). Higher θ → easier
		// bound → earlier exit.
		return math.Log(p.Threshold) / math.Log(p.RefThreshold)
	case Confidence:
		// Residual uncertainty (1-conf) decays with depth; the crossing
		// depth scales with ln(1-τ). Higher τ → harder bound → later exit.
		return math.Log(1-p.Threshold) / math.Log(1-p.RefThreshold)
	default:
		return 1
	}
}

// EEModel is a base model plus exit ramps.
//
// The exit decision is compiled at construction: the policy's depth scale
// and the enabled-ramp list are computed by New and kept current by
// Disable and Enable, so ExitLayerFor and HasRampAfter read plain slices
// and floats. Nothing is filled in lazily — fleet shards share one model
// across goroutines. Policy is fixed once New returns; build a new model
// to change it.
type EEModel struct {
	Name   string
	Base   *model.Model
	Policy Policy
	// rampAfter holds 1-based layer indices k (k < L) carrying a ramp
	// after layer k, sorted ascending. The final classifier after layer L
	// is implicit and is not an early exit.
	rampAfter []int
	// enabled is the ascending subset of rampAfter that is not disabled.
	enabled []int
	// An input of difficulty d (clamped to [0,1]) becomes exit-ready at
	// depth fraction max(0, d·scale + shift): scale is the policy's
	// DepthScale, shift the patience offset (0 for threshold policies).
	scale, shift float64
	// LMHeadRamp marks ramps that must project to the full vocabulary
	// (CALM, Llama); their FLOP cost dwarfs classifier ramps.
	LMHeadRamp bool
}

// New assembles an EE model with ramps after the given (1-based) layers.
// It rejects a policy whose kind is unknown or whose entropy or confidence
// thresholds fall outside (0,1).
func New(name string, base *model.Model, p Policy, rampAfter []int, lmHead bool) (*EEModel, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	L := base.NumLayers()
	seen := make(map[int]bool)
	ramps := make([]int, 0, len(rampAfter))
	for _, r := range rampAfter {
		if r < 1 || r >= L {
			return nil, fmt.Errorf("ee: ramp after layer %d outside [1,%d)", r, L)
		}
		if seen[r] {
			return nil, fmt.Errorf("ee: duplicate ramp after layer %d", r)
		}
		seen[r] = true
		ramps = append(ramps, r)
	}
	sort.Ints(ramps)
	m := &EEModel{
		Name:       name,
		Base:       base,
		Policy:     p,
		rampAfter:  ramps,
		enabled:    append([]int(nil), ramps...),
		scale:      p.DepthScale(),
		LMHeadRamp: lmHead,
	}
	if p.Kind == Patience {
		m.shift = float64(p.Patience-p.RefPatience) / float64(L)
	}
	return m, nil
}

// mustNew panics on error; used by the preset constructors whose inputs
// are compile-time constants.
func mustNew(name string, base *model.Model, p Policy, ramps []int, lmHead bool) *EEModel {
	m, err := New(name, base, p, ramps, lmHead)
	if err != nil {
		panic(err)
	}
	return m
}

func everyLayer(l int) []int {
	out := make([]int, l-1)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// NewVanilla wraps a model with no early exits at all; every input runs
// the full network. Baselines share the EE executor through this wrapper.
func NewVanilla(base *model.Model) *EEModel {
	p := Policy{Kind: Entropy, Threshold: 0.4, RefThreshold: 0.4}
	return mustNew(base.Name, base, p, nil, false)
}

// NewDeeBERT attaches an entropy ramp after every encoder layer, the
// paper's primary NLP baseline (entropy 0.4 default, §5).
func NewDeeBERT(base *model.Model, threshold float64) *EEModel {
	p := Policy{Kind: Entropy, Threshold: threshold, RefThreshold: 0.4}
	return mustNew("DeeBERT", base, p, everyLayer(base.NumLayers()), false)
}

// NewDistilBERTEE is the in-house EE variant of DistilBERT (§2.2): same
// ramp construction as DeeBERT on the 6-layer base.
func NewDistilBERTEE(base *model.Model, threshold float64) *EEModel {
	p := Policy{Kind: Entropy, Threshold: threshold, RefThreshold: 0.4}
	return mustNew("DistilBERT-EE", base, p, everyLayer(base.NumLayers()), false)
}

// NewBranchyNet attaches confidence ramps at the stage-ish boundaries of a
// vision model (BranchyNet places a few branches, not one per block).
func NewBranchyNet(base *model.Model) *EEModel {
	p := Policy{Kind: Confidence, Threshold: 0.75, RefThreshold: 0.75}
	L := base.NumLayers()
	ramps := []int{L / 4, L / 2, 3 * L / 4}
	return mustNew("B-"+base.Name, base, p, ramps, false)
}

// NewPABEE attaches patience ramps after every layer (exit after Patience
// consecutive agreeing predictions), the Figure 18 architecture.
func NewPABEE(base *model.Model, patience int) *EEModel {
	p := Policy{Kind: Patience, Patience: patience, RefPatience: 6}
	return mustNew("PABEE", base, p, everyLayer(base.NumLayers()), false)
}

// NewCALM attaches softmax-confidence ramps with full LM-head projections
// after every decoder layer (threshold 0.25 is the CALM paper default).
func NewCALM(base *model.Model, threshold float64) *EEModel {
	p := Policy{Kind: Confidence, Threshold: threshold, RefThreshold: 0.25}
	return mustNew("CALM", base, p, everyLayer(base.NumLayers()), true)
}

// NewLlamaEE replicates the final layer as an exit ramp after every
// decoder layer (§5.1.3); each check pays the 128K-vocab LM head.
func NewLlamaEE(base *model.Model) *EEModel {
	p := Policy{Kind: Confidence, Threshold: 0.5, RefThreshold: 0.5}
	return mustNew(base.Name+"-EE", base, p, everyLayer(base.NumLayers()), true)
}

// Clone returns an independent copy (ramp enable/disable state included).
func (m *EEModel) Clone() *EEModel {
	cp := *m
	cp.rampAfter = append([]int(nil), m.rampAfter...)
	cp.enabled = append([]int(nil), m.enabled...)
	return &cp
}

// Ramps returns all ramp positions (1-based "after layer k"), enabled or not.
func (m *EEModel) Ramps() []int { return append([]int(nil), m.rampAfter...) }

// ActiveRamps returns currently enabled ramp positions, ascending.
func (m *EEModel) ActiveRamps() []int { return append([]int(nil), m.enabled...) }

// HasRampAfter reports whether an enabled ramp follows layer k.
func (m *EEModel) HasRampAfter(k int) bool { return contains(m.enabled, k) }

// Disable turns off the ramp after layer k (the §3.4 exit-wrapper).
func (m *EEModel) Disable(k int) error {
	if !contains(m.rampAfter, k) {
		return fmt.Errorf("ee: no ramp after layer %d", k)
	}
	if i := sort.SearchInts(m.enabled, k); i < len(m.enabled) && m.enabled[i] == k {
		m.enabled = append(m.enabled[:i], m.enabled[i+1:]...)
	}
	return nil
}

// Enable re-activates the ramp after layer k.
func (m *EEModel) Enable(k int) error {
	if !contains(m.rampAfter, k) {
		return fmt.Errorf("ee: no ramp after layer %d", k)
	}
	if i := sort.SearchInts(m.enabled, k); i == len(m.enabled) || m.enabled[i] != k {
		m.enabled = append(m.enabled, 0)
		copy(m.enabled[i+1:], m.enabled[i:])
		m.enabled[i] = k
	}
	return nil
}

// contains reports whether the ascending list holds k.
func contains(sorted []int, k int) bool {
	i := sort.SearchInts(sorted, k)
	return i < len(sorted) && sorted[i] == k
}

// ExitLayerFor returns the 1-based layer after which an input of the given
// difficulty leaves the model: a ramp position, or NumLayers() if it runs
// to the final classifier. Deterministic given difficulty.
func (m *EEModel) ExitLayerFor(difficulty float64) int {
	L := m.Base.NumLayers()
	ready := m.readyDepth(difficulty) * float64(L)
	for _, r := range m.enabled {
		if float64(r) >= ready {
			return r
		}
	}
	return L
}

// readyDepth returns the depth fraction at which the input becomes
// exit-ready under the policy.
func (m *EEModel) readyDepth(difficulty float64) float64 {
	if difficulty < 0 {
		difficulty = 0
	}
	if difficulty > 1 {
		difficulty = 1
	}
	// Patience policies have scale 1 and threshold policies shift 0, so
	// this is bit for bit difficulty+shift or difficulty·DepthScale.
	d := difficulty*m.scale + m.shift
	if d < 0 {
		return 0
	}
	return d
}

// RampFLOPs is the per-sample compute of one exit check: a pooled
// classifier head (hidden² + hidden·classes) or, for LM-head ramps, a
// hidden×vocab projection — the Figure 12 overhead.
func (m *EEModel) RampFLOPs() float64 {
	h := float64(m.Base.Hidden)
	if m.LMHeadRamp {
		return 2*h*h + 2*h*float64(m.Base.Vocab)
	}
	return 2 * (h*h + h*float64(maxInt(m.Base.Classes, 2)))
}

// MeanExitLayer estimates the average exit layer over a difficulty
// distribution by quadrature over 1000 difficulty points.
func (m *EEModel) MeanExitLayer(cdfSamples []float64) float64 {
	if len(cdfSamples) == 0 {
		return float64(m.Base.NumLayers())
	}
	sum := 0.0
	for _, d := range cdfSamples {
		sum += float64(m.ExitLayerFor(d))
	}
	return sum / float64(len(cdfSamples))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
