package cliutil

import (
	"flag"
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

func TestStrayFlag(t *testing.T) {
	needs := map[string][]string{"workers": {"fleet"}, "target": {"windows"}, "out": {"windows", "demo"}}
	for _, tc := range []struct {
		args       []string
		on         map[string]bool
		name, mode string
	}{
		{[]string{"-workers", "2"}, map[string]bool{"fleet": false}, "workers", "fleet"},
		{[]string{"-workers", "2"}, map[string]bool{"fleet": true}, "", ""},
		{[]string{"-workers", "0"}, nil, "workers", "fleet"},           // set to its default still counts
		{[]string{"-target", "1", "-out", "f"}, nil, "out", "windows"}, // lexical order
		{[]string{"-fleet", "3"}, nil, "", ""},                         // not mode-only
		{[]string{"-out", "f"}, map[string]bool{"demo": true}, "", ""}, // any of its modes
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.Int("workers", 0, "")
		fs.Int("fleet", 0, "")
		fs.Float64("target", 0, "")
		fs.String("out", "", "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if name, mode := StrayFlag(fs, needs, tc.on); name != tc.name || mode != tc.mode {
			t.Errorf("%v with %v: StrayFlag = (%q, %q), want (%q, %q)", tc.args, tc.on, name, mode, tc.name, tc.mode)
		}
	}
}
