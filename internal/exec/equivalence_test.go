package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/workload"
)

// TestGraphEagerExitEquivalence: graph-mode split chains and eager
// segments must agree on *which layer* every sample exits at (only the
// completion timing differs). This pins the semantic boundary between the
// two execution modes.
func TestGraphEagerExitEquivalence(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.V100)
	rng := rand.New(rand.NewSource(51))

	f := func(rawDiffs []uint16, rawCut uint8) bool {
		if len(rawDiffs) == 0 || len(rawDiffs) > 32 {
			return true
		}
		cut := int(rawCut%11) + 1
		batch := make([]workload.Sample, len(rawDiffs))
		for i, r := range rawDiffs {
			batch[i] = workload.Sample{ID: int64(i + 1), Difficulty: float64(r) / 65535}
		}

		eagerExits := map[int64]int{}
		res := RunEager(m, batch, spec, 1)
		for _, c := range res.Completions {
			eagerExits[c.Sample.ID] = c.ExitLayer
		}

		graphExits := map[int64]int{}
		s1 := RunSplit(m, 1, cut, batch, spec, 1)
		for _, c := range s1.Completions {
			graphExits[c.Sample.ID] = c.ExitLayer
		}
		if cut < 12 {
			s2 := RunSplit(m, cut+1, 12, s1.Survivors, spec, 1)
			for _, c := range s2.Completions {
				graphExits[c.Sample.ID] = c.ExitLayer
			}
		}

		if len(eagerExits) != len(graphExits) {
			return false
		}
		for id, e := range eagerExits {
			if graphExits[id] != e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestGraphChainUsefulFLOPs: in graph mode every sample rides to its
// split's boundary, so useful FLOPs per split equal batch × split FLOPs —
// the constant-batch property, verified at the accounting level.
func TestGraphChainUsefulFLOPs(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.V100)
	batch := mkBatch(0.1, 0.4, 0.7, 0.95)
	res := RunSplit(m, 1, 6, batch, spec, 1)
	want := 0.0
	for _, l := range m.Base.Layers[:6] {
		want += l.FLOPs * 4
	}
	if res.UsefulFLOPs != want {
		t.Errorf("split useful FLOPs = %v, want %v (constant batch)", res.UsefulFLOPs, want)
	}
}
