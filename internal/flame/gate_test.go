package flame_test

// Flamegate: the deterministic guarantees `make flamegate` enforces.
// Always on (no env gate) because every check is seeded virtual-time
// simulation — no wall-clock timing, no flakiness budget.
//
//  1. Same seed ⇒ byte-identical folded output across runs.
//  2. The fold reconciles exactly (zero integer-nanosecond residual)
//     against the utilization ledger.
//  3. Folded output is independent of planner worker count (the replan
//     loop profiled at GOMAXPROCS 1, where the planner searches with one
//     worker, matches GOMAXPROCS 4, where it searches with four, byte
//     for byte).
//  4. The serial-vs-pipeline diff on the same seed and plan is non-empty
//     — the §5.8.7 comparison the paper's bubble analysis rides on.

import (
	"bytes"
	"runtime"
	"testing"

	"e3/internal/experiments"
	"e3/internal/flame"
	"e3/internal/forecast"
	"e3/internal/replan"
	"e3/internal/scheduler"
)

const gateHorizon = 2.0

// profiledDemoFold runs the pipeline demo under the profiler and returns
// the folded bytes plus the reconcile verdict.
func profiledDemoFold(t *testing.T) ([]byte, flame.ReconcileStat) {
	t.Helper()
	fl := flame.NewProfiler(0)
	rep, stat, _, _, err := experiments.RunDemo("pipeline", scheduler.Observers{Flame: fl}, gateHorizon)
	if err != nil {
		t.Fatalf("profiled demo: %v", err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	return fl.Profile().Folded(), stat
}

func TestFlameGateDeterministicAndExact(t *testing.T) {
	a, statA := profiledDemoFold(t)
	b, statB := profiledDemoFold(t)
	if !statA.OK() || !statB.OK() {
		t.Fatalf("flame reconcile not exact: run A residual %dns, run B residual %dns",
			statA.Residual, statB.Residual)
	}
	if statA.Devices == 0 {
		t.Fatal("flame reconcile checked no devices")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different folded output:\nA: %d bytes\nB: %d bytes", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("folded output is empty")
	}
}

// replanFold profiles the drifting replan demo at a given GOMAXPROCS,
// which sizes the planner's default worker pool (min(GOMAXPROCS, 8)), and
// returns the folded bytes plus the loop's reconcile verdict. It restores
// GOMAXPROCS before returning.
func replanFold(t *testing.T, procs int) ([]byte, flame.ReconcileStat) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fl := flame.NewProfiler(0)
	cfg := replan.DriftingDemo(4, forecast.MethodARIMA, nil)
	cfg.Flame = fl
	res, err := replan.Run(cfg)
	if err != nil {
		t.Fatalf("replan (GOMAXPROCS=%d): %v", procs, err)
	}
	if err := res.Report.Err(); err != nil {
		t.Fatalf("replan audit (GOMAXPROCS=%d): %v", procs, err)
	}
	if len(res.FlameWindows) != 4 {
		t.Fatalf("want 4 per-window flame snapshots, got %d", len(res.FlameWindows))
	}
	return fl.Profile().Folded(), res.FlameStat
}

func TestFlameGateWorkerCountInvariant(t *testing.T) {
	one, statOne := replanFold(t, 1)
	four, statFour := replanFold(t, 4)
	if !statOne.OK() || !statFour.OK() {
		t.Fatalf("replan flame reconcile not exact: GOMAXPROCS=1 residual %dns, GOMAXPROCS=4 residual %dns",
			statOne.Residual, statFour.Residual)
	}
	if !bytes.Equal(one, four) {
		t.Fatal("planner worker count changed the folded flame output")
	}
}

func TestFlameGateSerialVsPipelineDiff(t *testing.T) {
	flP := flame.NewProfiler(0)
	if _, _, _, _, err := experiments.RunDemo("pipeline", scheduler.Observers{Flame: flP}, gateHorizon); err != nil {
		t.Fatalf("pipeline demo: %v", err)
	}
	flS := flame.NewProfiler(0)
	if _, _, _, _, err := experiments.RunDemo("serial", scheduler.Observers{Flame: flS}, gateHorizon); err != nil {
		t.Fatalf("serial demo: %v", err)
	}
	d := flame.Diff(flP.Profile(), flS.Profile())
	if d.MovedNanos == 0 || len(d.Entries) == 0 {
		t.Fatal("serial vs pipeline diff is empty; the runners cannot have identical compute profiles")
	}
}
