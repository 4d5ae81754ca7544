// Package cliutil holds the flag-parsing helpers shared by the e3 command
// line tools: GPU cluster specs, model names and mode-only flags.
package cliutil

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
)

// ParseGPUSpec parses "V100=6,P100=8,K80=15" into per-kind counts,
// validating kinds against the catalogue.
func ParseGPUSpec(spec string) (map[gpu.Kind]int, error) {
	counts := make(map[gpu.Kind]int)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("cliutil: bad GPU spec %q (want KIND=N,...)", part)
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("cliutil: bad GPU count in %q", part)
		}
		kind := gpu.Kind(strings.ToUpper(strings.TrimSpace(kv[0])))
		known := false
		for _, k := range gpu.Kinds() {
			if k == kind {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("cliutil: unknown GPU kind %q (have %v)", kv[0], gpu.Kinds())
		}
		counts[kind] += n
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("cliutil: empty GPU spec %q", spec)
	}
	return counts, nil
}

// ModelNames lists the model identifiers BuildModel accepts.
func ModelNames() []string {
	return []string{"bert-base", "bert-large", "distilbert", "resnet50", "pabee", "t5", "llama"}
}

// BuildModel constructs the named early-exit model with its default ramp
// architecture; entropy applies to the entropy-ramped models and must lie
// in (0,1).
func BuildModel(name string, entropy float64) (*ee.EEModel, error) {
	if !(entropy > 0 && entropy < 1) {
		return nil, fmt.Errorf("cliutil: entropy threshold %v outside (0,1)", entropy)
	}
	switch strings.ToLower(name) {
	case "bert-base":
		return ee.NewDeeBERT(model.BERTBase(), entropy), nil
	case "bert-large":
		return ee.NewDeeBERT(model.BERTLarge(), entropy), nil
	case "distilbert":
		return ee.NewDistilBERTEE(model.DistilBERT(), entropy), nil
	case "resnet50":
		return ee.NewBranchyNet(model.ResNet50()), nil
	case "pabee":
		return ee.NewPABEE(model.BERTLarge(), 6), nil
	case "t5":
		return ee.NewCALM(model.T5Decoder(18), 0.25), nil
	case "llama":
		return ee.NewLlamaEE(model.Llama318B()), nil
	default:
		return nil, fmt.Errorf("cliutil: unknown model %q (try %s)", name, strings.Join(ModelNames(), ", "))
	}
}

// StrayFlag returns the first flag set on fs, in lexical order, that
// needs maps to modes of which on reports none, together with the first of
// those modes; both are empty when every set flag has a mode on. A mode is
// named by the flag that turns it on, and a flag may serve several modes.
// It finds the flags a command would otherwise ignore without a word.
func StrayFlag(fs *flag.FlagSet, needs map[string][]string, on map[string]bool) (name, mode string) {
	fs.Visit(func(f *flag.Flag) {
		modes, ok := needs[f.Name]
		if !ok || name != "" || slices.ContainsFunc(modes, func(m string) bool { return on[m] }) {
			return
		}
		name, mode = f.Name, modes[0]
	})
	return name, mode
}
