// Command e3-optimize runs E3's planner on a model/cluster/workload
// setting and prints the chosen splits, replication, and predicted
// goodput — the paper's §3.2 optimization, standalone.
//
// Usage:
//
//	e3-optimize -model bert-base -gpus V100=16 -batch 8 -slo 100ms -easy 0.8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"e3/internal/cliutil"
	"e3/internal/cluster"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/workload"
)

func main() {
	modelName := flag.String("model", "bert-base", "model: bert-base, bert-large, distilbert, resnet50, pabee, t5, llama")
	gpus := flag.String("gpus", "V100=16", "cluster spec, e.g. V100=6,P100=8,K80=15")
	batch := flag.Int("batch", 8, "input batch size B0")
	slo := flag.Duration("slo", 100*time.Millisecond, "latency SLO")
	easy := flag.Float64("easy", 0.8, "easy fraction of the workload mix")
	entropy := flag.Float64("entropy", 0.4, "exit entropy threshold")
	wrapper := flag.Bool("wrapper", false, "disable interior ramps (§3.4 exit-wrapper)")
	noMP := flag.Bool("no-model-parallel", false, "ablation: serialize splits")
	noPipe := flag.Bool("no-pipelining", false, "ablation: disable pipelining")
	maxSplits := flag.Int("max-splits", optimizer.DefaultMaxSplits, "max pipeline splits the search considers")
	maxCands := flag.Int("max-cands", optimizer.DefaultMaxBoundaryCands, "max boundary candidates ranked by exit mass (negative = uncapped)")
	workers := flag.Int("workers", 0, "parallel search workers (0 = one per core up to 8; any value yields identical plans)")
	minExit := flag.Float64("min-exit", optimizer.DefaultMinExitFrac, "min exit mass for a boundary candidate, in [0, 1] (0 keeps every ramp)")
	slack := flag.Float64("slack", optimizer.DefaultSlackFrac, "fraction of the SLO reserved as headroom, in [0, 1) (0 spends the whole SLO)")
	jsonOut := flag.Bool("json", false, "emit the plan as JSON (for pinning/diffing deployments)")
	explain := flag.Bool("explain", false, "print the search provenance: candidates enumerated, rejections by reason, winner and runners-up")
	explainJSON := flag.String("explain-json", "", "write the machine-readable search trace to FILE")
	flag.Parse()

	m, err := cliutil.BuildModel(*modelName, *entropy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e3-optimize:", err)
		os.Exit(2)
	}
	counts, err := cliutil.ParseGPUSpec(*gpus)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e3-optimize:", err)
		os.Exit(2)
	}
	clus := cluster.New(counts, 2)
	prof := profile.Offline(m, workload.Mix(*easy))

	var trace *optimizer.SearchTrace
	if *explain || *explainJSON != "" {
		trace = &optimizer.SearchTrace{}
	}
	cfg := optimizer.Config{
		Model: m, Profile: prof, Batch: *batch, Cluster: clus,
		SLO: slo.Seconds(), SlackFrac: *slack, MinExitFrac: *minExit,
		MaxSplits: *maxSplits, MaxBoundaryCands: *maxCands, Workers: *workers,
		Pipelining: !*noPipe, ModelParallel: !*noMP,
		DisableInteriorRamps: *wrapper,
		Trace:                trace,
	}
	start := time.Now()
	plan, err := optimizer.MaximizeGoodput(cfg)
	elapsed := time.Since(start)
	if *explainJSON != "" {
		f, ferr := os.Create(*explainJSON)
		if ferr == nil {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			ferr = enc.Encode(trace)
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "e3-optimize:", ferr)
			os.Exit(1)
		}
	}
	if err != nil {
		// With -explain the trace still explains *why* nothing was
		// feasible.
		if *explain {
			trace.WriteExplain(os.Stdout)
		}
		fmt.Fprintln(os.Stderr, "e3-optimize:", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plan); err != nil {
			fmt.Fprintln(os.Stderr, "e3-optimize:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("model:    %s (%d layers, %d active ramps)\n", m.Name, m.Base.NumLayers(), len(m.ActiveRamps()))
	fmt.Printf("cluster:  %d GPUs (%s), $%.5f/s\n", clus.Size(), *gpus, clus.CostPerSecond())
	fmt.Printf("workload: %.0f%% easy, batch %d, SLO %s\n", *easy*100, *batch, slo)
	fmt.Printf("solve:    %s\n\n", elapsed.Round(time.Microsecond))
	fmt.Println(plan)
	fmt.Println()
	fmt.Printf("%-10s %-8s %-9s %-10s %-12s %-10s\n", "split", "gpu", "replicas", "batch-in", "stage(ms)", "comm(ms)")
	for _, s := range plan.Splits {
		fmt.Printf("[%2d..%2d]   %-8s %-9d %-10.1f %-12.2f %-10.2f\n",
			s.From, s.To, s.Kind, s.Replicas, float64(plan.Batch)*s.Survival, s.StageTime*1e3, s.CommTime*1e3)
	}
	if *explain {
		fmt.Println()
		trace.WriteExplain(os.Stdout)
	}
}
