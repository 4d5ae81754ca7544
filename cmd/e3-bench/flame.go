package main

// Flame-profiling entry points: -flame-out/-flame-folded/-flame-pprof run
// the demo workload under the virtual-time compute profiler and export the
// fold. Comparing two exported profiles (e3-prof -diff) and the deeper
// drill-down views (top/tree/focus) live in cmd/e3-prof.

import (
	"fmt"
	"os"

	"e3/internal/experiments"
	"e3/internal/flame"
	"e3/internal/scheduler"
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

// runFlameDemo profiles one demo run (pipeline or the §5.8.7 Serial
// runner on the same seed and plan), exports the fold, and fails if the
// profile does not reconcile exactly against the utilization ledger.
func runFlameDemo(runner, outJSON, outFolded, outPprof string) int {
	if runner != "pipeline" && runner != "serial" {
		fmt.Fprintf(os.Stderr, "e3-bench: -flame-runner must be pipeline or serial (got %q)\n", runner)
		return 2
	}
	fl := flame.NewProfiler(0)
	rep, stat, _, _, err := experiments.RunDemo(runner, scheduler.Observers{Flame: fl}, demoHorizon)
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e3-bench:", err)
		return 1
	}
	prof := fl.Profile()
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
