package cliutil

import (
	"testing"

	"e3/internal/gpu"
)

func TestParseGPUSpec(t *testing.T) {
	counts, err := ParseGPUSpec("V100=6, p100=8,K80=15")
	if err != nil {
		t.Fatal(err)
	}
	if counts[gpu.V100] != 6 || counts[gpu.P100] != 8 || counts[gpu.K80] != 15 {
		t.Errorf("counts = %v", counts)
	}
}

func TestParseGPUSpecAccumulates(t *testing.T) {
	counts, err := ParseGPUSpec("V100=2,V100=3")
	if err != nil {
		t.Fatal(err)
	}
	if counts[gpu.V100] != 5 {
		t.Errorf("duplicate kinds should accumulate: %v", counts)
	}
}

func TestParseGPUSpecErrors(t *testing.T) {
	for _, spec := range []string{"", "V100", "V100=x", "V100=-1", "H100=4"} {
		if _, err := ParseGPUSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestBuildModelAllNames(t *testing.T) {
	for _, name := range ModelNames() {
		m, err := BuildModel(name, 0.4)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if m.Base.NumLayers() == 0 {
			t.Errorf("%s: empty model", name)
		}
	}
	if _, err := BuildModel("gpt5", 0.4); err == nil {
		t.Error("unknown model accepted")
	}
	for _, entropy := range []float64{0, 1, 1.5} {
		if _, err := BuildModel("bert-base", entropy); err == nil {
			t.Errorf("entropy threshold %v accepted", entropy)
		}
	}
}

func TestBuildModelCaseInsensitive(t *testing.T) {
	if _, err := BuildModel("BERT-Base", 0.4); err != nil {
		t.Error(err)
	}
}
