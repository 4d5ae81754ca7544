package replan

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"e3/internal/forecast"
	"e3/internal/slo"
)

var update = flag.Bool("update", false, "rewrite testdata/loop.golden")

const loopGoldenPath = "testdata/loop.golden"

// loopFingerprint runs cfg with a recorder armed (to reach the run's
// ledger) and renders everything the loop decides: every WindowStat, every
// retained plan diff, the replan and cache counters, the final plan, the
// forecast gauge, the audit totals and the ledger digest. It returns one
// line: the counters in clear, then a sha256 over the whole rendering.
func loopFingerprint(t *testing.T, name string, cfg Config) string {
	t.Helper()
	rec := &slo.Recorder{}
	cfg.Recorder = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, w := range res.Windows {
		js, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s\n", js)
	}
	for _, d := range res.Diffs.Items() {
		fmt.Fprintf(&b, "diff %s\n", d)
	}
	fmt.Fprintf(&b, "replans=%d changes=%d hits=%d misses=%d\n",
		res.Replans, res.PlanChanges, res.PlanCacheHits, res.PlanCacheMisses)
	fmt.Fprintf(&b, "final %s\nmae %v\n", res.FinalPlan, res.MeanForecastMAE)
	r := res.Report
	fmt.Fprintf(&b, "report samples=%d tracked=%d completed=%d dropped=%d reasons=%v ok=%t\n",
		r.Samples, r.Tracked, r.Completed, r.Dropped, r.ByReason, r.OK())
	fmt.Fprintf(&b, "ledger %s\n", rec.Ledger.Digest())
	return fmt.Sprintf("%s windows=%d replans=%d changes=%d hits=%d sha=%x",
		name, len(res.Windows), res.Replans, res.PlanChanges, res.PlanCacheHits,
		sha256.Sum256([]byte(b.String())))
}

// TestLoopGolden pins the whole loop result of three runs, one for each of
// the loop's planning branches: the drifting demo (drift replans, one of
// them keeping the plan), the spike-buffer run (the offline bootstrap, the
// reserve engaging and releasing), and a steady mix replanned every window
// (plan-cache hits). Regenerate with `go test ./internal/replan/ -run
// TestLoopGolden -update` only for an intended behaviour change.
func TestLoopGolden(t *testing.T) {
	cached := DriftingDemo(8, forecast.MethodARIMA, nil)
	cached.Workload = steadyMix
	cached.DriftThreshold = -1
	lines := []string{
		loopFingerprint(t, "drifting-12w", DriftingDemo(12, forecast.MethodARIMA, nil)),
		loopFingerprint(t, "buffers-4w", bufferConfig(t, 0.7, 1.9, 0.7, 0.7)),
		loopFingerprint(t, "cached-8w", cached),
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(loopGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(loopGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("loop result drifted from %s:\n got:\n%s want:\n%s", loopGoldenPath, got, want)
	}
}
