package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"e3/internal/audit"
	"e3/internal/flame"
	"e3/internal/forecast"
	"e3/internal/replan"
	"e3/internal/scheduler"
	"e3/internal/slo"
	"e3/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/observed.golden and testdata/tables.golden")

const observedGoldenPath = "testdata/observed.golden"

// observedViews is one full observer set, each view unbounded so its
// output covers the whole run.
func observedViews() scheduler.Observers {
	return scheduler.Observers{Tracer: telemetry.New(), Attr: slo.NewAttribution(slo.DefaultTopK), Flame: flame.NewProfiler(0)}
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// observedLine renders one run: the ledger digest and collector counters,
// then (when views were attached) each view's export.
func observedLine(t *testing.T, name, ledgerDigest string, served, violations, dropped int, obs scheduler.Observers) string {
	t.Helper()
	line := fmt.Sprintf("%s ledger=%s served=%d violations=%d dropped=%d",
		name, sha([]byte(ledgerDigest)), served, violations, dropped)
	if obs == (scheduler.Observers{}) {
		return line
	}
	var chrome bytes.Buffer
	if err := telemetry.WriteChrome(&chrome, obs.Tracer.Spans()); err != nil {
		t.Fatal(err)
	}
	dump, err := json.Marshal(obs.Attr.Dump())
	if err != nil {
		t.Fatal(err)
	}
	prof := obs.Flame.Profile()
	var profJSON bytes.Buffer
	if err := prof.WriteJSON(&profJSON); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s trace=%s attr=%s flame_folded=%s flame_json=%s", line,
		sha(chrome.Bytes()), sha(dump), sha(prof.Folded()), sha(profJSON.Bytes()))
}

// flameWindowsHash hashes every per-window flame snapshot, folded and
// JSON, in window order, so the profile at each window boundary is pinned
// and not only the end-of-run one.
func flameWindowsHash(t *testing.T, windows []*flame.Profile) string {
	t.Helper()
	var all bytes.Buffer
	for w, prof := range windows {
		fmt.Fprintf(&all, "window %d\n", w)
		all.Write(prof.Folded())
		if err := prof.WriteJSON(&all); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%d:%s", len(windows), sha(all.Bytes()))
}

// observedDemo runs the 2 s demo on one runner with the given views.
func observedDemo(t *testing.T, runner string, obs scheduler.Observers) *scheduler.Collector {
	t.Helper()
	rep, _, coll, _, err := RunDemo(runner, obs, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("%s: %v", runner, err)
	}
	return coll
}

// observedReplan runs the drifting demo for 4 windows with the given
// views. The flight recorder is armed only to reach the run's exhaustive
// ledger.
func observedReplan(t *testing.T, obs scheduler.Observers) (*replan.Result, *audit.Ledger) {
	t.Helper()
	cfg := replan.DriftingDemo(4, forecast.MethodARIMA, nil)
	cfg.Observers = obs
	rec := &slo.Recorder{}
	cfg.Recorder = rec
	res, err := replan.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Report.Err(); err != nil {
		t.Fatalf("replan: %v", err)
	}
	return res, rec.Ledger
}

// TestObservedGolden pins every observer's output on each runner of the
// demo and on the replan loop, and checks that attaching the views
// changes neither the ledger nor the collector's counters. Regenerate
// with `go test ./internal/experiments/ -run TestObservedGolden -update`
// only for an intended behaviour change.
func TestObservedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("observed golden runs four simulations twice")
	}
	var lines []string
	for _, runner := range []string{"pipeline", "dataparallel", "serial"} {
		bare := observedDemo(t, runner, scheduler.Observers{})
		views := observedViews()
		coll := observedDemo(t, runner, views)
		name := "demo-" + runner
		plain := observedLine(t, name, bare.Audit.Digest(), bare.Good.Served, bare.Violations, bare.Dropped, scheduler.Observers{})
		full := observedLine(t, name, coll.Audit.Digest(), coll.Good.Served, coll.Violations, coll.Dropped, views)
		if !strings.HasPrefix(full, plain+" ") {
			t.Errorf("attaching observers changed the run:\n bare: %s\n full: %s", plain, full)
		}
		lines = append(lines, full)
	}

	tally := func(res *replan.Result) (served, violations, dropped int) {
		for _, w := range res.Windows {
			served, violations, dropped = served+w.Served, violations+w.Violations, dropped+w.Dropped
		}
		return
	}
	bare, bareLedger := observedReplan(t, scheduler.Observers{})
	views := observedViews()
	res, ledger := observedReplan(t, views)
	s, vi, d := tally(bare)
	plain := observedLine(t, "replan-4w", bareLedger.Digest(), s, vi, d, scheduler.Observers{})
	s, vi, d = tally(res)
	full := observedLine(t, "replan-4w", ledger.Digest(), s, vi, d, views) +
		" flame_windows=" + flameWindowsHash(t, res.FlameWindows)
	if !strings.HasPrefix(full, plain+" ") {
		t.Errorf("attaching observers changed the replan run:\n bare: %s\n full: %s", plain, full)
	}
	lines = append(lines, full)

	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(observedGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(observedGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("observer outputs drifted from %s:\n got:\n%s want:\n%s", observedGoldenPath, got, want)
	}
}
