package main

// Run artifacts: the static demo (-trace-out, -flame-out) runs the demo
// workload once, under the tracer and the virtual-time compute profiler,
// and exports the timeline and the fold; the replan loop (-windows)
// writes the same artifacts plus its attribution dump and flight-recorder
// bundle. Every one of those files goes through writeArtifact; the
// -bench-out reports go through bench.WriteFile. Comparing two
// exported profiles (e3-prof -diff) and the deeper drill-down views
// (top/tree/focus) live in cmd/e3-prof.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"e3/internal/experiments"
	"e3/internal/flame"
	"e3/internal/scheduler"
	"e3/internal/telemetry"
)

// outputs are the artifact paths one run writes. An empty path, or no
// flame path, skips that artifact, and a run attaches only the views its
// artifacts need.
type outputs struct {
	// trace is the Chrome trace-event timeline.
	trace string
	// flame lists the flame profile's files; each one's extension picks
	// its format (see writeFlame).
	flame []string
	// attr, bundle and bench are the replan loop's latency-attribution
	// dump, flight-recorder bundle and stats report; the static demo's
	// bench stats come from their own runs (exportBench).
	attr, bundle, bench string
}

// writeArtifact creates path, fills it with write and closes it.
func writeArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTraceFile writes tr's spans to path as Chrome trace-event JSON.
func writeTraceFile(path string, tr *telemetry.Tracer) error {
	return writeArtifact(path, func(w io.Writer) error { return telemetry.WriteChrome(w, tr.Spans()) })
}

// writeFlame writes prof to every path, each in the format its extension
// names: collapsed stacks (flamegraph.pl / speedscope input) for
// .folded, a gzip pprof profile.proto for .pb.gz, JSON otherwise.
func writeFlame(prof *flame.Profile, paths []string) error {
	for _, path := range paths {
		format, write := "JSON", prof.WriteJSON
		switch {
		case strings.HasSuffix(path, ".folded"):
			format, write = "folded stacks", func(w io.Writer) error {
				_, err := w.Write(prof.Folded())
				return err
			}
		case strings.HasSuffix(path, ".pb.gz"):
			format, write = "pprof", prof.WritePprof
		}
		if err := writeArtifact(path, write); err != nil {
			return err
		}
		fmt.Printf("wrote flame profile (%s) to %s", format, path)
		if format == "pprof" {
			fmt.Printf(" — inspect with `go tool pprof %s`", path)
		}
		fmt.Println()
	}
	return nil
}

// reconcileVerdict renders a flame reconcile outcome.
func reconcileVerdict(stat flame.ReconcileStat) string {
	verdict := "MISMATCH"
	if stat.OK() {
		verdict = "exact"
	}
	return fmt.Sprintf("flame reconcile: residual %dns over %d devices — %s", stat.Residual, stat.Devices, verdict)
}

// runStaticDemo runs the demo once with the views out's artifacts need
// attached: the tracer for out.trace (a Chrome trace, plus the plan, the
// per-split occupancy summary and the audit verdict on stdout), the flame
// profiler for out.flame. The flame runner is pipeline or the §5.8.7
// Serial runner on the same seed and plan (main checks it); a trace
// without flame output is of the pipeline. It fails if the run fails its
// audit, or if the profile does not reconcile exactly against the
// utilization ledger.
func runStaticDemo(out outputs, flameRunner string) error {
	runner := "pipeline"
	var obs scheduler.Observers
	if out.trace != "" {
		obs.Tracer = telemetry.New()
	}
	if len(out.flame) > 0 {
		runner = flameRunner
		obs.Flame = flame.NewProfiler(0)
	}
	rep, stat, _, plan, err := experiments.RunDemo(runner, obs, experiments.DemoHorizon)
	if err != nil {
		return err
	}
	if out.trace != "" {
		if err := writeTraceFile(out.trace, obs.Tracer); err != nil {
			return err
		}
		fmt.Printf("plan: %s\n", plan)
		telemetry.Summarize(obs.Tracer.Spans()).Print(os.Stdout)
		fmt.Printf("%s\n", rep)
		fmt.Printf("wrote %d spans to %s\n", len(obs.Tracer.Spans()), out.trace)
	}
	if err := rep.Err(); err != nil {
		return err
	}
	if obs.Flame == nil {
		return nil
	}
	prof := obs.Flame.Profile()
	if err := writeFlame(prof, out.flame); err != nil {
		return err
	}
	fmt.Printf("flame: %s runner, %d stacks, busy %.3fs, bubble %.3fs over %d devices\n",
		runner, len(prof.Stacks), float64(prof.BusyNanos())/1e9, float64(prof.BubbleNanos())/1e9, stat.Devices)
	fmt.Println(reconcileVerdict(stat))
	if !stat.OK() {
		return errors.New("flame profile failed exact reconciliation against the ledger")
	}
	return nil
}
