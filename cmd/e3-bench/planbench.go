package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

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
// search, and the memoized parallel search (default worker pool). Speedup
// is the reference over the default-pool search, the path planner callers
// take.
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
// the fast path makes affordable, and the plan gate's verdict on them.
type planBenchReport struct {
	Note       string          `json:"note"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Cases      []planBenchCase `json:"cases"`

	// LargeSearch runs the gate case with doubled boundary candidates and
	// five splits; LargeVsOldDefault compares it to the reference search
	// at the default size.
	LargeSearchMS     float64 `json:"large_search_ms"`
	LargeMaxCands     int     `json:"large_max_cands"`
	LargeMaxSplits    int     `json:"large_max_splits"`
	LargeSearched     int     `json:"large_candidates_searched"`
	LargeVsOldDefault float64 `json:"large_vs_old_default_reference"`

	// GateCase is the case the bar is checked on, SpeedupBar its least
	// Speedup, and Pass the verdict (see planPass).
	GateCase   string  `json:"gate_case"`
	SpeedupBar float64 `json:"speedup_bar"`
	Pass       bool    `json:"pass"`
}

// The plan gate: on planGateCase, the paper-evaluation cluster at four
// splits that the replan loop searches every drifted window, the memoized
// search must beat the reference search by planSpeedupBar.
const (
	planGateCase   = "small/4kind"
	planSpeedupBar = 3.0
)

// planPass is the plan gate's verdict on the gate case's reference and
// memoized search times and the widened search's: the memoized search is
// at least planSpeedupBar times faster than the reference, and the
// widened search takes no longer than the reference at the default size.
func planPass(refMS, memoMS, widenedMS float64) bool {
	return refMS/memoMS >= planSpeedupBar && widenedMS <= refMS
}

// planProblem is one named planner problem of the -plan-bench grid.
type planProblem struct {
	name string
	cfg  optimizer.Config
}

// planBenchProblems mirrors the BenchmarkSearch grid in
// internal/optimizer/bench_test.go: model scales crossed with cluster
// heterogeneity, each planned from the offline profile.
func planBenchProblems() []planProblem {
	mk := func(m *ee.EEModel, batch int, c *cluster.Cluster, slo float64, splits int) optimizer.Config {
		cfg := optimizer.NewConfig(m, profile.Offline(m, workload.Mix(0.8)), batch, c, slo)
		cfg.MaxSplits = splits
		return cfg
	}
	deebert := ee.NewDeeBERT(model.BERTBase(), 0.4)
	large := ee.NewDeeBERT(model.BERTLarge(), 0.4)
	llama := ee.NewLlamaEE(model.Llama318B())
	return []planProblem{
		{"small/1kind", mk(deebert, 8, cluster.Homogeneous(gpu.V100, 16), 0.100, 3)},
		{"small/4kind", mk(deebert, 8, cluster.PaperEvaluation(), 0.100, 4)},
		{"bert-large/2kind", mk(large, 8, cluster.New(map[gpu.Kind]int{gpu.V100: 12, gpu.A6000: 8}, 4), 0.250, 3)},
		{"bert-large/4kind", mk(large, 8, cluster.PaperEvaluation(), 0.250, 4)},
		{"llama/3kind", mk(llama, 4, cluster.New(map[gpu.Kind]int{gpu.V100: 16, gpu.A6000: 16, gpu.P100: 8}, 4), 2.0, 4)},
	}
}

// bestOfWall times fn three times and returns the fastest wall-clock
// duration in milliseconds.
func bestOfWall(fn func() error) (float64, error) {
	best := 0.0
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if ms := time.Since(start).Seconds() * 1e3; i == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

// runPlanBench times every grid case on all three planner paths after one
// untimed warm-up, checks the winners agree, times the widened search,
// writes the report (the BENCH_PR5.json artifact) and fails if the plan
// gate does.
func runPlanBench(path string) error {
	rep := planBenchReport{
		Note: "planner wall-clock, best of 3 after one warm-up; reference = pre-memoization search " +
			"retained as oracle; memo = segment-cost-table search with dominance pruning",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GateCase:   planGateCase,
		SpeedupBar: planSpeedupBar,
	}
	problems := planBenchProblems()
	gate := slices.IndexFunc(problems, func(p planProblem) bool { return p.name == planGateCase })
	// Warm-up: the timed paths below then all find lazy state built.
	if _, err := optimizer.MaximizeGoodput(problems[gate].cfg); err != nil {
		return fmt.Errorf("%s: %w", planGateCase, err)
	}
	for _, p := range problems {
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
		if parMS > 0 {
			c.Speedup = refMS / parMS
		}
		rep.Cases = append(rep.Cases, c)
		fmt.Printf("%-18s reference %8.2fms  memo %8.2fms  parallel %8.2fms  speedup %6.1fx  (searched %d, pruned %d)\n",
			p.name, refMS, serMS, parMS, c.Speedup, c.Searched, c.Pruned)
	}

	// The widened search: 2x boundary candidates, 5 splits, on the gate
	// case — affordable now, compared against the default-size reference
	// search.
	gateCase := rep.Cases[gate]
	large := problems[gate].cfg
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
		rep.LargeVsOldDefault = gateCase.ReferenceMS / largeMS
	}
	fmt.Printf("%-18s memo %8.2fms (searched %d) — %.1fx faster than the reference at the default size\n",
		"large(20c/5s)", largeMS, rep.LargeSearched, rep.LargeVsOldDefault)
	rep.Pass = planPass(gateCase.ReferenceMS, gateCase.MemoParallelMS, largeMS)

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
	fmt.Printf("plan gate on %s: memoized %.1fx faster than the reference (bar >= %gx); widened search %.2fms vs reference %.2fms (bar <= reference): pass=%v\n",
		planGateCase, gateCase.Speedup, planSpeedupBar, largeMS, gateCase.ReferenceMS, rep.Pass)
	if !rep.Pass {
		return fmt.Errorf("plan gate failed on %s", planGateCase)
	}
	return nil
}
