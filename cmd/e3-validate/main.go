// Command e3-validate cross-checks the planner against the executor: for
// each model in the zoo it plans a deployment, measures the plan with the
// pipeline simulation, and reports the prediction error. Clockwork's
// lesson — predictability from the bottom up — applied as a self-test.
//
// Usage:
//
//	e3-validate               # whole zoo at defaults
//	e3-validate -batch 4 -gpus 8 -tolerance 0.35
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"e3/internal/cliutil"
	"e3/internal/cluster"
	"e3/internal/gpu"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/workload"
)

// caseSpec pairs a zoo model with its natural workload and SLO.
type caseSpec struct {
	name  string
	dist  workload.Dist
	slo   float64
	batch int
}

func main() {
	gpus := flag.Int("gpus", 16, "V100 count for the validation cluster")
	batch := flag.Int("batch", 8, "batch size (classification models)")
	tolerance := flag.Float64("tolerance", 0.35, "max |measured-planned|/planned before failing")
	flag.Parse()

	cases := []caseSpec{
		{"bert-base", workload.Mix(0.8), 0.100, *batch},
		{"bert-large", workload.Mix(0.8), 0.250, *batch},
		{"distilbert", workload.Mix(0.8), 0.100, *batch},
		{"resnet50", workload.ImageNet(), 0.100, *batch},
		{"pabee", workload.Mix(0.8), 0.250, *batch},
	}

	fmt.Printf("%-12s %14s %14s %8s\n", "model", "planned/s", "measured/s", "error")
	failed := false
	for _, c := range cases {
		m, err := cliutil.BuildModel(c.name, 0.4)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e3-validate:", err)
			os.Exit(2)
		}
		clus := cluster.Homogeneous(gpu.V100, *gpus)
		prof := profile.FromDist(m, c.dist, 8000, 1)
		plan, err := optimizer.MaximizeGoodput(optimizer.NewConfig(m, prof, c.batch, clus, c.slo))
		if err != nil {
			fmt.Printf("%-12s %14s %14s %8s\n", c.name, "-", "-", "infeasible")
			continue
		}
		build := func() (*sim.Engine, scheduler.Runner) {
			eng := sim.NewEngine()
			coll := scheduler.NewCollector(m.Base.NumLayers(), c.slo, 0)
			p, err := scheduler.NewPipeline(eng, cluster.Homogeneous(gpu.V100, *gpus), m, plan, coll)
			if err != nil {
				fmt.Fprintln(os.Stderr, "e3-validate:", err)
				os.Exit(1)
			}
			return eng, p
		}
		gen := func() *workload.Generator { return workload.NewGenerator(c.dist, 99) }
		measured, err := serving.MaxGoodput(build, gen, c.batch, c.slo, 2.0, plan.Goodput*2, 0.01)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e3-validate:", err)
			os.Exit(1)
		}
		errFrac := math.Abs(measured-plan.Goodput) / plan.Goodput
		status := fmt.Sprintf("%5.1f%%", errFrac*100)
		if errFrac > *tolerance {
			status += "  FAIL"
			failed = true
		}
		fmt.Printf("%-12s %14.0f %14.0f %8s\n", c.name, plan.Goodput, measured, status)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "e3-validate: planner predictions outside tolerance")
		os.Exit(1)
	}
	fmt.Println("ok: planner predictions within tolerance")
}
