package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"e3/internal/analysis"
)

// TestRepositoryIsLintClean runs the full analyzer suite over this
// repository's own source tree, exactly as `make lintgate` does:
// findings are matched against the checked-in baseline, and both fresh
// findings and stale baseline entries fail. Because it lives in
// go test ./..., a future invariant violation fails tier-1 verification
// even when nobody remembers to run the lint step by hand.
func TestRepositoryIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	loader, pkgs := loadModule(t)
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the pattern expansion is dropping most of the tree", len(pkgs))
	}
	analyzers := analysis.All()
	if len(analyzers) < 10 {
		t.Fatalf("suite has %d analyzers; the v2 suite registers 10", len(analyzers))
	}
	diags := analysis.RunAnalyzers(pkgs, analyzers)
	findings := analysis.ToFindings(diags, loader.Root())

	// Positions must round-trip: every reported path resolves under the
	// module root (the JSON contract cmd/e3-lint -json exposes).
	for _, f := range findings {
		if filepath.IsAbs(f.Path) {
			t.Errorf("finding path %q did not relativize against the module root", f.Path)
		} else if _, err := os.Stat(filepath.Join(loader.Root(), filepath.FromSlash(f.Path))); err != nil {
			t.Errorf("finding path %q does not resolve under the module root: %v", f.Path, err)
		}
	}

	base, err := analysis.LoadBaseline(filepath.Join(loader.Root(), "lint.baseline.json"))
	if err != nil {
		t.Fatalf("loading repo baseline: %v", err)
	}
	fresh, stale := base.Diff(findings)
	for _, f := range fresh {
		t.Errorf("invariant violation not in baseline: %s %s:%d: %s", f.Rule, f.Path, f.Line, f.Message)
	}
	for _, f := range stale {
		t.Errorf("stale baseline entry (violation is gone — delete it): %s %s: %s", f.Rule, f.Path, f.Message)
	}
}

// TestSuiteComposition pins the v2 suite's shape: all nine invariant
// analyzers plus the directives meta-check are registered, the
// interprocedural ones are module-scoped, and the meta-check sits last
// so every other analyzer's used-marks land before stale detection.
func TestSuiteComposition(t *testing.T) {
	all := analysis.All()
	want := []string{
		"virtualtime", "floatdeadline", "seededrand", "ledgerpair", "eventloop",
		"detflow", "hotalloc", "errflow", "eventloop-interproc", "directives",
	}
	if len(all) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("All()[%d] = %s, want %s", i, all[i].Name, name)
		}
	}
	if all[len(all)-1] != analysis.DirectiveCheck {
		t.Error("the directives meta-check must be registered last")
	}
	for _, a := range all[5:] {
		if a.RunModule == nil {
			t.Errorf("%s must be a module-scoped (interprocedural) analyzer", a.Name)
		}
		if a.Run != nil {
			t.Errorf("%s registers both per-package and module entry points", a.Name)
		}
	}
	for _, a := range all[:5] {
		if a.Run == nil || a.Applies == nil {
			t.Errorf("%s must stay a scoped per-package analyzer", a.Name)
		}
	}
}
