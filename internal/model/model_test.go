package model

import (
	"math"
	"testing"
)

func TestZooValidates(t *testing.T) {
	for _, m := range []*Model{BERTBase(), BERTLarge(), DistilBERT(), ResNet50(), T5Decoder(18), Llama318B()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestBERTBaseShape(t *testing.T) {
	m := BERTBase()
	if m.NumLayers() != 12 {
		t.Fatalf("BERT-BASE layers = %d, want 12", m.NumLayers())
	}
	// Per-layer FLOPs ≈ 2·(4·768² + 2·768·3072)·128 ≈ 1.81 GFLOPs.
	got := m.Layers[0].FLOPs
	if math.Abs(got-1.81e9)/1.81e9 > 0.02 {
		t.Errorf("BERT layer FLOPs = %.3g, want ~1.81e9", got)
	}
	// Activation: 128 tokens × 768 dims × 4 bytes.
	if m.Layers[0].ActBytes != 128*768*4 {
		t.Errorf("activation bytes = %v", m.Layers[0].ActBytes)
	}
}

func TestDistilBERTHalvesBERT(t *testing.T) {
	if got, want := DistilBERT().TotalFLOPs(), BERTBase().TotalFLOPs()/2; math.Abs(got-want) > 1e-6*want {
		t.Errorf("DistilBERT FLOPs = %v, want half of BERT = %v", got, want)
	}
}

func TestBERTLargeHeavierThanBase(t *testing.T) {
	ratio := BERTLarge().TotalFLOPs() / BERTBase().TotalFLOPs()
	// 24 vs 12 layers at larger width: roughly 3.5×.
	if ratio < 3 || ratio > 4.5 {
		t.Errorf("LARGE/BASE FLOP ratio = %v, want 3–4.5", ratio)
	}
}

func TestResNet50Profile(t *testing.T) {
	m := ResNet50()
	if m.NumLayers() != 16 {
		t.Fatalf("ResNet-50 blocks = %d, want 16 (3+4+6+3)", m.NumLayers())
	}
	total := m.TotalFLOPs()
	if total < 3.5e9 || total > 5e9 {
		t.Errorf("ResNet-50 total = %.3g FLOPs, want ~4.1e9", total)
	}
	// Activation footprint shrinks with depth (stage 1 vs stage 4).
	if m.Layers[0].ActBytes <= m.Layers[15].ActBytes {
		t.Error("ResNet activations should shrink with depth")
	}
}

func TestLlamaVocabDominatesRampCost(t *testing.T) {
	m := Llama318B()
	if m.NumLayers() != 32 {
		t.Fatalf("Llama layers = %d, want 32", m.NumLayers())
	}
	// LM-head projection (hidden×vocab) must be a large fraction of a
	// decoder layer's per-token FLOPs — the Figure 12 mechanism.
	lmHead := 2 * float64(m.Hidden) * float64(m.Vocab)
	ratio := lmHead / m.Layers[0].FLOPs
	if ratio < 0.5 {
		t.Errorf("LM-head/layer FLOP ratio = %v, want ≥ 0.5 (ramp overhead must bite)", ratio)
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	cases := []struct {
		name string
		m    Model
	}{
		{"empty name", Model{Layers: []Layer{{Name: "l", FLOPs: 1, ActBytes: 1}}, Hidden: 1}},
		{"no layers", Model{Name: "x", Hidden: 1}},
		{"zero flops", Model{Name: "x", Layers: []Layer{{Name: "l", ActBytes: 1}}, Hidden: 1}},
		{"zero act", Model{Name: "x", Layers: []Layer{{Name: "l", FLOPs: 1}}, Hidden: 1}},
		{"zero hidden", Model{Name: "x", Layers: []Layer{{Name: "l", FLOPs: 1, ActBytes: 1}}}},
		{"bad autoregressive", Model{Name: "x", Task: Autoregressive, Layers: []Layer{{Name: "l", FLOPs: 1, ActBytes: 1}}, Hidden: 1}},
	}
	for _, c := range cases {
		if err := c.m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid model", c.name)
		}
	}
}

func TestTaskString(t *testing.T) {
	if Classification.String() != "classification" || Autoregressive.String() != "autoregressive" {
		t.Error("Task.String broken")
	}
	if Task(9).String() == "" {
		t.Error("unknown task should still stringify")
	}
}

func TestT5DecoderAutoregressive(t *testing.T) {
	m := T5Decoder(18)
	if m.Task != Autoregressive || m.AvgOutputTokens != 18 {
		t.Errorf("T5 task/tokens = %v/%v", m.Task, m.AvgOutputTokens)
	}
	if m.NumLayers() != 8 {
		t.Errorf("T5 decoder layers = %d, want 8", m.NumLayers())
	}
}

func TestCompressedVariantsScale(t *testing.T) {
	b12 := BERTBase().TotalFLOPs()
	b6 := BERTCompressed6().TotalFLOPs()
	b3 := BERTCompressed3().TotalFLOPs()
	if math.Abs(b6-b12/2) > 1e-6*b12 || math.Abs(b3-b12/4) > 1e-6*b12 {
		t.Errorf("compressed FLOPs: 12L=%g 6L=%g 3L=%g, want 1/2 and 1/4", b12, b6, b3)
	}
	for _, m := range []*Model{BERTCompressed6(), BERTCompressed3()} {
		if err := m.Validate(); err != nil {
			t.Error(err)
		}
	}
}
