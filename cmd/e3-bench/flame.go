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
// flame path, skips that artifact. The static demo always runs under the
// flame profiler; otherwise a run attaches only the views its artifacts
// need.
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
// .folded, a gzip pprof profile.proto for .pb.gz, JSON otherwise. It
// reports each file it wrote to w.
func writeFlame(w io.Writer, prof *flame.Profile, paths []string) error {
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
		fmt.Fprintf(w, "wrote flame profile (%s) to %s", format, path)
		if format == "pprof" {
			fmt.Fprintf(w, " — inspect with `go tool pprof %s`", path)
		}
		fmt.Fprintln(w)
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

// runStaticDemo runs the demo once under the flame profiler, plus the
// tracer when out.trace is set, and reports to w. A trace writes the
// Chrome timeline to out.trace and prints the plan, the per-split
// occupancy summary with the profile's bubble taxonomy and the audit
// verdict; the profile is written to every out.flame path. The runner is
// pipeline, or with flame files the §5.8.7 Serial runner if flameRunner
// names it (main checks it). It fails if the run fails its audit, or if
// the profile does not reconcile exactly against the utilization ledger.
func runStaticDemo(w io.Writer, out outputs, flameRunner string) error {
	runner := "pipeline"
	if len(out.flame) > 0 {
		runner = flameRunner
	}
	obs := scheduler.Observers{Flame: flame.NewProfiler(0)}
	if out.trace != "" {
		obs.Tracer = telemetry.New()
	}
	rep, stat, _, plan, err := experiments.RunDemo(runner, obs, experiments.DemoHorizon)
	if err != nil {
		return err
	}
	prof := obs.Flame.Profile()
	if out.trace != "" {
		if err := writeTraceFile(out.trace, obs.Tracer); err != nil {
			return err
		}
		fmt.Fprintf(w, "plan: %s\n", plan)
		telemetry.Summarize(obs.Tracer.Spans()).PrintWithTaxonomy(w, flame.SummarizeBubbles(prof))
		fmt.Fprintf(w, "%s\n", rep)
		fmt.Fprintf(w, "wrote %d spans to %s\n", len(obs.Tracer.Spans()), out.trace)
	}
	if err := rep.Err(); err != nil {
		return err
	}
	if err := writeFlame(w, prof, out.flame); err != nil {
		return err
	}
	fmt.Fprintf(w, "flame: %s runner, %d stacks, busy %.3fs, bubble %.3fs over %d devices\n",
		runner, len(prof.Stacks), float64(prof.BusyNanos())/1e9, float64(prof.BubbleNanos())/1e9, stat.Devices)
	fmt.Fprintln(w, reconcileVerdict(stat))
	if !stat.OK() {
		return errors.New("flame profile failed exact reconciliation against the ledger")
	}
	return nil
}
