package ee

import (
	"math"
	"math/rand"
	"testing"

	"e3/internal/model"
)

// refExit is the exit decision by its definition: a disabled-ramp map
// walked against the full ramp list, with the policy's depth scale
// recomputed on every call. The cached EEModel must agree with it exactly.
type refExit struct {
	m        *EEModel
	disabled map[int]bool
}

func newRefExit(m *EEModel) refExit { return refExit{m: m, disabled: map[int]bool{}} }

func (r refExit) clone(m *EEModel) refExit {
	c := newRefExit(m)
	for k, v := range r.disabled {
		c.disabled[k] = v
	}
	return c
}

func (r refExit) exitLayer(difficulty float64) int {
	L := r.m.Base.NumLayers()
	if difficulty < 0 {
		difficulty = 0
	}
	if difficulty > 1 {
		difficulty = 1
	}
	var d float64
	if r.m.Policy.Kind == Patience {
		d = difficulty + float64(r.m.Policy.Patience-r.m.Policy.RefPatience)/float64(L)
	} else {
		d = difficulty * r.m.Policy.DepthScale()
	}
	if d < 0 {
		d = 0
	}
	ready := d * float64(L)
	for _, k := range r.m.Ramps() {
		if !r.disabled[k] && float64(k) >= ready {
			return k
		}
	}
	return L
}

func (r refExit) hasRampAfter(k int) bool {
	for _, x := range r.m.Ramps() {
		if x == k {
			return !r.disabled[k]
		}
	}
	return false
}

func (r refExit) active() []int {
	var out []int
	for _, k := range r.m.Ramps() {
		if !r.disabled[k] {
			out = append(out, k)
		}
	}
	return out
}

// probeDifficulties spans [0,1] finely, straddles it, and lands on (and
// one ulp either side of) every difficulty whose ready depth is exactly a
// layer index — where an off-by-one-ulp cache would pick another ramp.
func probeDifficulties(m *EEModel) []float64 {
	out := []float64{-0.5, math.Copysign(0, -1), 0, 1, 1.5, math.NaN()}
	for i := 0; i <= 1000; i++ {
		out = append(out, float64(i)/1000)
	}
	L := float64(m.Base.NumLayers())
	for k := 0.0; k <= L; k++ {
		var d float64
		if m.Policy.Kind == Patience {
			d = k/L - float64(m.Policy.Patience-m.Policy.RefPatience)/L
		} else {
			d = k / (L * m.Policy.DepthScale())
		}
		out = append(out, d, math.Nextafter(d, -1), math.Nextafter(d, 2))
	}
	return out
}

func checkExitCache(t *testing.T, label string, m *EEModel, ref refExit) {
	t.Helper()
	for _, d := range probeDifficulties(m) {
		if got, want := m.ExitLayerFor(d), ref.exitLayer(d); got != want {
			t.Fatalf("%s: ExitLayerFor(%v) = %d, definition gives %d", label, d, got, want)
		}
	}
	L := m.Base.NumLayers()
	for k := -1; k <= L+1; k++ {
		if got, want := m.HasRampAfter(k), ref.hasRampAfter(k); got != want {
			t.Fatalf("%s: HasRampAfter(%d) = %v, definition gives %v", label, k, got, want)
		}
	}
	got, want := m.ActiveRamps(), ref.active()
	if len(got) != len(want) {
		t.Fatalf("%s: ActiveRamps %v, definition gives %v", label, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: ActiveRamps %v, definition gives %v", label, got, want)
		}
	}
}

// toggle applies a random Disable or Enable (sometimes of a layer with no
// ramp, which must fail without changing anything) to both sides.
func toggle(t *testing.T, rng *rand.Rand, m *EEModel, ref refExit) {
	t.Helper()
	L := m.Base.NumLayers()
	k := 1 + rng.Intn(L)
	isRamp := false
	for _, r := range m.Ramps() {
		isRamp = isRamp || r == k
	}
	var err error
	if rng.Intn(2) == 0 {
		err = m.Disable(k)
		if err == nil {
			ref.disabled[k] = true
		}
	} else {
		err = m.Enable(k)
		if err == nil {
			delete(ref.disabled, k)
		}
	}
	if (err == nil) != isRamp {
		t.Fatalf("toggling layer %d: err = %v, ramp there = %v", k, err, isRamp)
	}
}

// TestExitCacheMatchesDefinition: for every policy kind, ExitLayerFor,
// HasRampAfter and ActiveRamps equal their map-walk definitions on a fresh
// model and after every Disable, Enable and Clone.
func TestExitCacheMatchesDefinition(t *testing.T) {
	models := map[string]func() *EEModel{
		"entropy-0.3":       func() *EEModel { return NewDeeBERT(model.BERTBase(), 0.3) },
		"entropy-0.4":       func() *EEModel { return NewDeeBERT(model.BERTBase(), 0.4) },
		"entropy-0.55":      func() *EEModel { return NewDistilBERTEE(model.DistilBERT(), 0.55) },
		"confidence-0.15":   func() *EEModel { return NewCALM(model.T5Decoder(18), 0.15) },
		"confidence-0.6":    func() *EEModel { return NewCALM(model.T5Decoder(18), 0.6) },
		"confidence-sparse": func() *EEModel { return NewBranchyNet(model.ResNet50()) },
		"confidence-lmhead": func() *EEModel { return NewLlamaEE(model.Llama318B()) },
		"patience-3":        func() *EEModel { return NewPABEE(model.BERTLarge(), 3) },
		"patience-6":        func() *EEModel { return NewPABEE(model.BERTLarge(), 6) },
		"patience-9":        func() *EEModel { return NewPABEE(model.BERTLarge(), 9) },
		"vanilla":           func() *EEModel { return NewVanilla(model.BERTBase()) },
	}
	for label, build := range models {
		rng := rand.New(rand.NewSource(int64(len(label))))
		m := build()
		ref := newRefExit(m)
		checkExitCache(t, label+" fresh", m, ref)
		for i := 0; i < 40; i++ {
			toggle(t, rng, m, ref)
			checkExitCache(t, label+" after toggle", m, ref)
		}

		c := m.Clone()
		cref := ref.clone(c)
		for i := 0; i < 20; i++ {
			toggle(t, rng, c, cref)
			checkExitCache(t, label+" clone", c, cref)
			checkExitCache(t, label+" original beside clone", m, ref)
		}
	}
}

// TestNewRejectsInvalidPolicy pins where an invalid policy fails: New
// returns the error, the preset constructors panic at construction, and
// Policy.DepthScale still panics on its own (see
// TestDepthScalePanicsOnBadThreshold). A model that exists has a valid,
// precomputed exit decision.
func TestNewRejectsInvalidPolicy(t *testing.T) {
	base := model.BERTBase()
	for _, p := range []Policy{
		{Kind: Entropy, Threshold: 1.5, RefThreshold: 0.4},
		{Kind: Entropy, Threshold: 0.4, RefThreshold: 0},
		{Kind: Confidence, Threshold: 0, RefThreshold: 0.5},
		{Kind: Confidence, Threshold: 0.5, RefThreshold: 1},
		{Kind: PolicyKind(7), Threshold: 0.4, RefThreshold: 0.4},
	} {
		if _, err := New("x", base, p, []int{3, 6}, false); err == nil {
			t.Errorf("New accepted invalid policy %+v", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewDeeBERT with entropy threshold 1.5 did not panic at construction")
		}
	}()
	NewDeeBERT(base, 1.5)
}
