package experiments

import (
	"fmt"

	"e3/internal/audit"
	"e3/internal/flame"
	"e3/internal/scheduler"
	"e3/internal/slo"
	"e3/internal/telemetry"
)

func init() {
	register("audit", func() Table { t, _ := RunAudit(); return t })
}

// RunAudit drives the demo's bursty open-loop trace through each runner
// (E3 pipeline, data-parallel baseline, serial ablation) with the
// lifecycle ledger and every observer attached — a span ring, the
// per-request attribution and the flame profiler — and reports the
// conservation verdict per runner. Each view reconciles against the
// ledger (tracer counts, attribution sums, flame busy/idle time), so a
// recording bug in any of them surfaces as an audit violation. The second
// return value counts invariant violations across all runners;
// cmd/e3-bench -audit exits nonzero when it is not 0.
func RunAudit() (Table, int) {
	t := Table{
		ID:      "audit",
		Title:   "Lifecycle conservation audit (bursty open loop, all runners)",
		Columns: []string{"runner", "samples", "completed", "dropped", "admission", "stale-shed", "sla-flush", "violations", "verdict"},
		Notes:   "every minted sample must terminate exactly once with monotone timestamps and a classified drop reason",
	}

	dee := demoModel()
	plan, err := planDemo(dee)
	if err != nil {
		t.Rows = append(t.Rows, []string{"pipeline", "-", "-", "-", "-", "-", "-", "-", "planning failed: " + err.Error()})
		return t, 1
	}

	violations := 0
	for _, runner := range []string{"pipeline", "dataparallel", "serial"} {
		obs := scheduler.Observers{
			Tracer: telemetry.NewRing(4096),
			Attr:   slo.NewAttribution(slo.DefaultTopK),
			Flame:  flame.NewProfiler(0),
		}
		rep, _, _, err := runDemo(runner, dee, plan, obs, DemoHorizon)
		if err != nil {
			t.Rows = append(t.Rows, []string{runner, "-", "-", "-", "-", "-", "-", "-", "build failed: " + err.Error()})
			violations++
			continue
		}
		verdict := "OK"
		if !rep.OK() {
			verdict = "FAIL: " + rep.Violations[0]
			violations += len(rep.Violations)
		}
		t.Rows = append(t.Rows, []string{
			runner,
			itoa(rep.Samples), itoa(rep.Completed), itoa(rep.Dropped),
			itoa(rep.ByReason[audit.ReasonAdmission]),
			itoa(rep.ByReason[audit.ReasonStaleShed]),
			itoa(rep.ByReason[audit.ReasonSLAFlush]),
			itoa(len(rep.Violations)),
			verdict,
		})
	}
	if violations > 0 {
		t.Notes = fmt.Sprintf("%s — %d VIOLATION(S) FOUND", t.Notes, violations)
	}
	return t, violations
}
