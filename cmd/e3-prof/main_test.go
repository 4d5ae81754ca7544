package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"e3/internal/cliutil/clitest"
	"e3/internal/flame"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestRejectsNegativeTop: a negative -top must exit 2 with a one-line
// message, for the flat listing and for -diff alike.
func TestRejectsNegativeTop(t *testing.T) {
	p := writeProfile(t, "p.json", map[string]int64{flame.JoinStack([]string{"dev:V100-0", "exec"}): 1})
	for _, args := range [][]string{
		{"-top", "-1", p},
		{"-top", "-1", "-tree", p},
		{"-top", "-3", "-diff", p, p},
	} {
		code, stderr := clitest.Run(t, 20*time.Second, args...)
		if code != 2 || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "e3-prof: ") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and one e3-prof line", args, code, stderr)
		}
	}
}

// writeProfile saves a hand-built profile with the given stack weights
// (nanoseconds) as a JSON artifact and returns its path.
func writeProfile(t *testing.T, name string, stacks map[string]int64) string {
	t.Helper()
	pr := &flame.Profile{Schema: flame.ProfileSchema, Stacks: stacks}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func diffOutput(t *testing.T, a, b string, top int) string {
	t.Helper()
	var out strings.Builder
	if code := runDiff(&out, a, b, top); code != 0 {
		t.Fatalf("runDiff exit %d, output:\n%s", code, out.String())
	}
	return out.String()
}

func TestRunDiff(t *testing.T) {
	split1 := flame.JoinStack([]string{"dev:V100-0", "split:1", "exec"})
	split2 := flame.JoinStack([]string{"dev:V100-1", "split:2", "exec"})
	bubble := flame.JoinStack([]string{"dev:V100-1", "split:2", "bubble"})
	split3 := flame.JoinStack([]string{"dev:V100-2", "split:3", "exec"})
	a := writeProfile(t, "a.json", map[string]int64{
		split1: 2_000_000_000,
		split2: 1_000_000_000,
		bubble: 500_000_000,
	})
	b := writeProfile(t, "b.json", map[string]int64{
		split1: 1_500_000_000, // -0.5s
		split2: 1_000_000_000, // unchanged
		bubble: 800_000_000,   // +0.3s
		split3: 250_000_000,   // new: +0.25s
	})

	t.Run("identical", func(t *testing.T) {
		out := diffOutput(t, a, a, 20)
		if !strings.Contains(out, "0.000s of GPU-time moved") {
			t.Errorf("identical diff header wrong:\n%s", out)
		}
		if !strings.Contains(out, "profiles are identical") {
			t.Errorf("identical profiles not reported as such:\n%s", out)
		}
	})

	t.Run("changed", func(t *testing.T) {
		out := diffOutput(t, a, b, 20)
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		if !strings.Contains(lines[0], "0.550s of GPU-time moved") {
			t.Errorf("header = %q, want 0.550s of GPU-time moved", lines[0])
		}
		// One line per changed stack, largest |delta| first; the
		// unchanged stack is not listed.
		want := []struct{ delta, stack string }{
			{"-0.500000s", "dev:V100-0;split:1;exec"},
			{"+0.300000s", "dev:V100-1;split:2;bubble"},
			{"+0.250000s", "dev:V100-2;split:3;exec"},
		}
		if len(lines) != 1+len(want) {
			t.Fatalf("got %d lines, want header + %d entries:\n%s", len(lines), len(want), out)
		}
		for i, w := range want {
			got := strings.Fields(lines[1+i])
			if got[0] != w.delta || got[len(got)-1] != w.stack {
				t.Errorf("entry %d = %q, want delta %s on %s", i, lines[1+i], w.delta, w.stack)
			}
		}
		if strings.Contains(out, "profiles are identical") {
			t.Errorf("differing profiles reported identical:\n%s", out)
		}
	})

	t.Run("top", func(t *testing.T) {
		out := diffOutput(t, a, b, 1)
		if !strings.Contains(out, "-0.500000s") || strings.Contains(out, "+0.300000s") {
			t.Errorf("-top 1 did not keep only the largest delta:\n%s", out)
		}
		if !strings.Contains(out, "... 2 more stacks changed") {
			t.Errorf("-top 1 did not count the cut entries:\n%s", out)
		}
	})

	t.Run("missing file", func(t *testing.T) {
		var out strings.Builder
		if code := runDiff(&out, a, filepath.Join(t.TempDir(), "absent.json"), 20); code != 1 {
			t.Errorf("missing profile exit %d, want 1", code)
		}
	})
}
