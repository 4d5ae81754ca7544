package main

import (
	"fmt"
	"runtime"

	"e3/internal/bench"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/workload"
)

// planBenchCase is one planner problem timed across the three search
// paths: the retained pre-memoization reference, the memoized serial
// search, and the memoized parallel search (default worker pool).
type planBenchCase struct {
	Case     string `json:"case"`
	Layers   int    `json:"layers"`
	GPUs     int    `json:"gpus"`
	Splits   int    `json:"max_splits"`
	Searched int    `json:"candidates_searched"`
	Pruned   int    `json:"candidates_pruned"`

	ReferenceMS    float64 `json:"reference_ms"`
	MemoSerialMS   float64 `json:"memo_serial_ms"`
	MemoParallelMS float64 `json:"memo_parallel_ms"`
	Speedup        float64 `json:"speedup_vs_reference"`
}

// planBenchReport is the machine-readable -plan-bench payload
// (BENCH_PR5.json): before/after planner timings plus the widened search
// the fast path makes affordable.
type planBenchReport struct {
	Note       string          `json:"note"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Cases      []planBenchCase `json:"cases"`

	// LargeSearch runs the paper cluster with doubled boundary candidates
	// and five splits; LargeVsOldDefault compares it to the reference
	// search at the old default size.
	LargeSearchMS     float64 `json:"large_search_ms"`
	LargeMaxCands     int     `json:"large_max_cands"`
	LargeMaxSplits    int     `json:"large_max_splits"`
	LargeSearched     int     `json:"large_candidates_searched"`
	LargeVsOldDefault float64 `json:"large_vs_old_default_reference"`
}

// planBenchProblems mirrors the BenchmarkSearch grid in
// internal/optimizer/bench_test.go: model scales crossed with cluster
// heterogeneity.
func planBenchProblems() []struct {
	name string
	cfg  optimizer.Config
} {
	mk := func(m *ee.EEModel, batch int, c *cluster.Cluster, slo float64, splits int) optimizer.Config {
		return optimizer.Config{
			Model:   m,
			Profile: profile.FromDist(m, workload.Mix(0.8), 4000, 1),
			Batch:   batch, Cluster: c,
			SLO: slo, SlackFrac: optimizer.DefaultSlackFrac, MinExitFrac: optimizer.DefaultMinExitFrac,
			MaxSplits: splits, Pipelining: true, ModelParallel: true,
		}
	}
	deebert := ee.NewDeeBERT(model.BERTBase(), 0.4)
	large := ee.NewDeeBERT(model.BERTLarge(), 0.4)
	llama := ee.NewLlamaEE(model.Llama318B())
	return []struct {
		name string
		cfg  optimizer.Config
	}{
		{"small/1kind", mk(deebert, 8, cluster.Homogeneous(gpu.V100, 16), 0.100, 3)},
		{"small/4kind", mk(deebert, 8, cluster.PaperEvaluation(), 0.100, 4)},
		{"bert-large/2kind", mk(large, 8, cluster.New(map[gpu.Kind]int{gpu.V100: 12, gpu.A6000: 8}, 4), 0.250, 3)},
		{"bert-large/4kind", mk(large, 8, cluster.PaperEvaluation(), 0.250, 4)},
		{"llama/3kind", mk(llama, 4, cluster.New(map[gpu.Kind]int{gpu.V100: 16, gpu.A6000: 16, gpu.P100: 8}, 4), 2.0, 4)},
	}
}

// runPlanBench times every grid case on all three planner paths, checks
// the winners agree, and writes the report (the BENCH_PR5.json artifact).
func runPlanBench(path string) error {
	rep := planBenchReport{
		Note: "planner wall-clock, best of 3; reference = pre-memoization search " +
			"retained as oracle; memo = segment-cost-table search with dominance pruning",
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, p := range planBenchProblems() {
		var refPlan, fastPlan optimizer.Plan
		refMS, err := bestOfWall(func() (e error) {
			refPlan, e = optimizer.MaximizeGoodputReference(p.cfg)
			return
		})
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		serial := p.cfg
		serial.Workers = -1
		serMS, err := bestOfWall(func() (e error) {
			fastPlan, e = optimizer.MaximizeGoodput(serial)
			return
		})
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if refPlan.String() != fastPlan.String() {
			return fmt.Errorf("%s: memoized plan diverged from reference", p.name)
		}
		par := p.cfg
		par.Workers = 0
		parMS, err := bestOfWall(func() (e error) {
			_, e = optimizer.MaximizeGoodput(par)
			return
		})
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		traced := p.cfg
		traced.Trace = &optimizer.SearchTrace{}
		if _, err := optimizer.MaximizeGoodput(traced); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		c := planBenchCase{
			Case:           p.name,
			Layers:         p.cfg.Model.Base.NumLayers(),
			GPUs:           p.cfg.Cluster.Size(),
			Splits:         p.cfg.MaxSplits,
			Searched:       traced.Trace.Enumerated,
			Pruned:         traced.Trace.PrunedCandidates,
			ReferenceMS:    refMS,
			MemoSerialMS:   serMS,
			MemoParallelMS: parMS,
		}
		if serMS > 0 {
			c.Speedup = refMS / serMS
		}
		rep.Cases = append(rep.Cases, c)
		fmt.Printf("%-18s reference %8.2fms  memo %8.2fms  parallel %8.2fms  speedup %6.1fx  (searched %d, pruned %d)\n",
			p.name, refMS, serMS, parMS, c.Speedup, c.Searched, c.Pruned)
	}

	// The widened search: 2x boundary candidates, 5 splits, on the paper
	// cluster — affordable now, compared against the old default-size
	// reference search.
	large := optimizer.Config{}
	for _, p := range planBenchProblems() {
		if p.name == "small/4kind" {
			large = p.cfg
			break
		}
	}
	oldRefMS := rep.Cases[1].ReferenceMS
	large.MaxBoundaryCands = 20
	large.MaxSplits = 5
	largeTrace := &optimizer.SearchTrace{}
	largeMS, err := bestOfWall(func() error {
		c := large
		c.Trace = nil
		_, e := optimizer.MaximizeGoodput(c)
		return e
	})
	if err != nil {
		return fmt.Errorf("large search: %w", err)
	}
	large.Trace = largeTrace
	if _, err := optimizer.MaximizeGoodput(large); err != nil {
		return fmt.Errorf("large search: %w", err)
	}
	rep.LargeSearchMS = largeMS
	rep.LargeMaxCands = 20
	rep.LargeMaxSplits = 5
	rep.LargeSearched = largeTrace.Enumerated
	if largeMS > 0 {
		rep.LargeVsOldDefault = oldRefMS / largeMS
	}
	fmt.Printf("%-18s memo %8.2fms (searched %d) — %.1fx faster than the reference at the OLD default size\n",
		"large(20c/5s)", largeMS, rep.LargeSearched, rep.LargeVsOldDefault)

	env, err := bench.Wrap("plan-bench", 0, nil, map[string]float64{
		"large_search_ms":           rep.LargeSearchMS,
		"large_vs_old_default_ref":  rep.LargeVsOldDefault,
		"large_candidates_searched": float64(rep.LargeSearched),
	}, rep)
	if err == nil {
		err = bench.WriteFile(path, env)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote planner benchmarks to %s\n", path)
	return nil
}
