package main

// Static demo artifacts: -trace-out and -flame-out/-flame-folded/-flame-pprof
// run the demo workload once, under the tracer and the virtual-time
// compute profiler, and export the timeline and the fold. Comparing two exported profiles (e3-prof -diff) and the deeper
// drill-down views (top/tree/focus) live in cmd/e3-prof.

import (
	"fmt"
	"os"

	"e3/internal/audit"
	"e3/internal/experiments"
	"e3/internal/flame"
	"e3/internal/optimizer"
	"e3/internal/scheduler"
	"e3/internal/telemetry"
)

// writeFlameArtifacts exports one profile in whichever of the three
// formats were requested (empty paths are skipped).
func writeFlameArtifacts(prof *flame.Profile, outJSON, outFolded, outPprof string) error {
	if outJSON != "" {
		f, err := os.Create(outJSON)
		if err != nil {
			return err
		}
		err = prof.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote flame profile (JSON) to %s\n", outJSON)
	}
	if outFolded != "" {
		if err := os.WriteFile(outFolded, prof.Folded(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote flame profile (folded stacks) to %s\n", outFolded)
	}
	if outPprof != "" {
		f, err := os.Create(outPprof)
		if err != nil {
			return err
		}
		err = prof.WritePprof(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote flame profile (pprof) to %s — inspect with `go tool pprof %s`\n", outPprof, outPprof)
	}
	return nil
}

// runStaticDemo runs the demo once with the views the requested
// artifacts need attached: the tracer for tracePath (a Chrome trace, plus
// the per-split occupancy summary and the audit verdict), the flame
// profiler for any flame path (the fold in each requested format). The
// flame runner is pipeline or the §5.8.7 Serial runner on the same seed
// and plan; a trace without flame output is of the pipeline. It fails if
// the run fails its audit, or if the profile does not reconcile exactly
// against the utilization ledger.
func runStaticDemo(tracePath, flameRunner, outJSON, outFolded, outPprof string) int {
	runner := "pipeline"
	var obs scheduler.Observers
	if tracePath != "" {
		obs.Tracer = telemetry.New()
	}
	if outJSON != "" || outFolded != "" || outPprof != "" {
		if flameRunner != "pipeline" && flameRunner != "serial" {
			fmt.Fprintf(os.Stderr, "e3-bench: -flame-runner must be pipeline or serial (got %q)\n", flameRunner)
			return 2
		}
		runner = flameRunner
		obs.Flame = flame.NewProfiler(0)
	}
	rep, stat, _, plan, err := experiments.RunDemo(runner, obs, demoHorizon)
	if err == nil && obs.Tracer != nil {
		err = writeTrace(tracePath, obs.Tracer, plan, rep)
	}
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e3-bench:", err)
		return 1
	}
	if obs.Flame == nil {
		return 0
	}
	prof := obs.Flame.Profile()
	if werr := writeFlameArtifacts(prof, outJSON, outFolded, outPprof); werr != nil {
		fmt.Fprintln(os.Stderr, "e3-bench:", werr)
		return 1
	}
	fmt.Printf("flame: %s runner, %d stacks, busy %.3fs, bubble %.3fs over %d devices\n",
		runner, len(prof.Stacks), float64(prof.BusyNanos())/1e9, float64(prof.BubbleNanos())/1e9, stat.Devices)
	fmt.Printf("flame reconcile: residual %dns over %d devices — %s\n",
		stat.Residual, stat.Devices, map[bool]string{true: "exact", false: "MISMATCH"}[stat.OK()])
	if !stat.OK() {
		fmt.Fprintln(os.Stderr, "e3-bench: flame profile failed exact reconciliation against the ledger")
		return 1
	}
	return 0
}

// writeTrace writes the demo's full span timeline as Chrome trace-event
// JSON and prints the plan, the per-split occupancy summary and the audit
// verdict.
func writeTrace(path string, tr *telemetry.Tracer, plan optimizer.Plan, rep *audit.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChrome(f, tr.Spans()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("plan: %s\n", plan)
	telemetry.Summarize(tr.Spans()).Print(os.Stdout)
	fmt.Printf("%s\n", rep)
	fmt.Printf("wrote %d spans to %s\n", len(tr.Spans()), path)
	return nil
}
