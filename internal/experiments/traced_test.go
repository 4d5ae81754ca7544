package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"e3/internal/scheduler"
	"e3/internal/telemetry"
)

// TestTracedDemoChromeExport runs the traced demo, exports the span stream
// as Chrome trace-event JSON, decodes it, and validates the structure —
// monotone per-track virtual timestamps, one execute track per GPU of the
// demo cluster, and span/event counts that reconcile with the conservation
// ledger.
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
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("exported trace does not decode: %v", err)
	}
	tracks := make(map[int]string)
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tracks[ev.TID], _ = ev.Args["name"].(string)
		}
	}

	// Monotone virtual timestamps per track, non-negative durations.
	lastTS := make(map[string]float64)
	execTracks := make(map[string]bool)
	execBatches, events := 0, 0
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		events++
		track, ok := tracks[ev.TID]
		if !ok {
			t.Fatalf("event %q on tid %d has no thread_name metadata", ev.Name, ev.TID)
		}
		if ev.Dur < 0 {
			t.Fatalf("span on %s runs backwards: ts %v dur %v", track, ev.TS, ev.Dur)
		}
		if prev, seen := lastTS[track]; seen && ev.TS < prev {
			t.Fatalf("track %s not monotone: ts %v after %v", track, ev.TS, prev)
		}
		lastTS[track] = ev.TS
		if ev.Cat == telemetry.KindExecute.String() {
			execTracks[track] = true
			execBatches++
			if batch, _ := ev.Args["batch"].(float64); batch < 1 {
				t.Fatalf("execute span with batch %v", ev.Args["batch"])
			}
			if gpu, _ := ev.Args["gpu"].(string); gpu == "" {
				t.Fatalf("execute span on %s missing GPU kind", track)
			}
		}
	}
	if events != len(tr.Spans()) {
		t.Fatalf("export kept %d of %d spans", events, len(tr.Spans()))
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
