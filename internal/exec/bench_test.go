package exec

import (
	"testing"

	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/workload"
)

func benchBatch(n int) []workload.Sample {
	out := make([]workload.Sample, n)
	for i := range out {
		out[i] = workload.Sample{ID: int64(i), Difficulty: float64(i%10) / 10}
	}
	return out
}

// BenchmarkRunEager measures the eager (naive-EE) execution path.
func BenchmarkRunEager(b *testing.B) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.V100)
	batch := benchBatch(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunEager(m, batch, spec, 1)
	}
}

// BenchmarkRunSplitGraph measures E3's graph-mode split execution.
func BenchmarkRunSplitGraph(b *testing.B) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.V100)
	batch := benchBatch(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunSplit(m, 1, 6, batch, spec, 1)
	}
}

// BenchmarkSplitTable measures the same split through a compiled table
// with a warm Result: the pipeline's per-batch path.
func BenchmarkSplitTable(b *testing.B) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	tbl := CompileSplit(m, 1, 6, gpu.Get(gpu.V100), 8)
	batch := benchBatch(8)
	var res Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.RunInto(batch, 1, &res)
	}
}
