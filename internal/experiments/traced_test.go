package experiments

import (
	"bytes"
	"testing"

	"e3/internal/scheduler"
	"e3/internal/telemetry"
)

// TestTracedDemoChromeExport is the PR's acceptance check: run the traced
// demo, export the span stream as Chrome trace-event JSON, parse it back,
// and validate the structure — monotone per-track virtual timestamps, one
// execute track per GPU of the demo cluster, and span/event counts that
// reconcile with the conservation ledger.
func TestTracedDemoChromeExport(t *testing.T) {
	tr := telemetry.New()
	rep, _, _, _, err := RunDemo("pipeline", scheduler.Observers{Tracer: tr}, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("traced demo failed its audit: %v", err)
	}
	if rep.Completed == 0 {
		t.Fatal("traced demo completed nothing")
	}

	var buf bytes.Buffer
	if err := telemetry.WriteChrome(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exported trace does not parse back: %v", err)
	}
	if len(spans) != len(tr.Spans()) {
		t.Fatalf("round-trip kept %d of %d spans", len(spans), len(tr.Spans()))
	}

	// Monotone virtual timestamps per track, non-negative durations.
	lastStart := make(map[string]float64)
	execTracks := make(map[string]bool)
	execBatches := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span on %s runs backwards: [%v, %v]", s.Track, s.Start, s.End)
		}
		if prev, seen := lastStart[s.Track]; seen && s.Start < prev {
			t.Fatalf("track %s not monotone: start %v after %v", s.Track, s.Start, prev)
		}
		lastStart[s.Track] = s.Start
		if s.Kind == telemetry.KindExecute {
			execTracks[s.Track] = true
			execBatches++
			if s.Batch < 1 {
				t.Fatalf("execute span with batch %d", s.Batch)
			}
			if s.GPU == "" {
				t.Fatalf("execute span on %s missing GPU kind", s.Track)
			}
		}
	}
	// One occupancy track per GPU: the demo cluster is V100×8 and the
	// pipeline must have spread work across all of it at 2000 rps.
	if len(execTracks) != 8 {
		t.Fatalf("execute spans cover %d GPU tracks, want 8: %v", len(execTracks), execTracks)
	}
	if execBatches == 0 {
		t.Fatal("no execute spans recorded")
	}

	// The tracer's lifecycle counters reconcile with the ledger (Reconcile
	// already folded mismatches into rep; double-check directly too).
	arrived, completed, dropped := tr.Counts()
	if int(arrived) != rep.Samples || int(completed) != rep.Completed || int(dropped) != rep.Dropped {
		t.Fatalf("tracer counts (%d, %d, %d) disagree with ledger (%d, %d, %d)",
			arrived, completed, dropped, rep.Samples, rep.Completed, rep.Dropped)
	}

	// The summarizer agrees with the collector's utilization tracker about
	// which devices worked.
	sum := telemetry.Summarize(tr.Spans())
	if sum.GPUTracks != 8 {
		t.Fatalf("summary sees %d GPU tracks, want 8", sum.GPUTracks)
	}
	if len(sum.Splits) == 0 {
		t.Fatal("summary has no splits")
	}
	for _, sp := range sum.Splits {
		if sp.Util < 0 || sp.Util > 1 {
			t.Fatalf("split %d utilization %v out of [0,1]", sp.Stage, sp.Util)
		}
	}
}

// TestTracedDemoRingReconciles checks that ring eviction does not break
// count reconciliation: counters are O(1) state, not derived from the
// retained spans.
func TestTracedDemoRingReconciles(t *testing.T) {
	tr := telemetry.NewRing(64)
	rep, _, _, _, err := RunDemo("pipeline", scheduler.Observers{Tracer: tr}, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("ring-traced demo failed its audit: %v", err)
	}
	if tr.Evicted() == 0 {
		t.Fatal("demo did not wrap the 64-span ring; test is vacuous")
	}
	if len(tr.Spans()) != 64 {
		t.Fatalf("ring retains %d spans, want 64", len(tr.Spans()))
	}
}

// TestAuditTableUnchangedByTelemetry pins that attaching the tracer to
// RunAudit kept the table shape: same columns, all runners OK.
func TestAuditTableUnchangedByTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("audit run is slow")
	}
	tbl, violations := RunAudit()
	if violations != 0 {
		t.Fatalf("audit found %d violations", violations)
	}
	if len(tbl.Columns) != 9 || tbl.Columns[8] != "verdict" {
		t.Fatalf("audit table columns changed: %v", tbl.Columns)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("audit table has %d rows, want 3", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[8] != "OK" {
			t.Fatalf("runner %s verdict %q", row[0], row[8])
		}
	}
}
