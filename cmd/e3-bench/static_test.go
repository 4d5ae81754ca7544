package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStaticDemoCombined: -trace-out and -flame-out together profile and
// trace one demo run, and each file is byte-identical to the one its flag
// writes alone.
func TestStaticDemoCombined(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	for _, run := range []struct{ trace, flame string }{
		{path("both.trace.json"), path("both.flame.json")},
		{path("trace.json"), ""},
		{"", path("flame.json")},
	} {
		if code := runStaticDemo(run.trace, "pipeline", run.flame, "", ""); code != 0 {
			t.Fatalf("runStaticDemo(%q, %q) exited %d", run.trace, run.flame, code)
		}
	}
	for combined, alone := range map[string]string{"both.trace.json": "trace.json", "both.flame.json": "flame.json"} {
		got, err := os.ReadFile(path(combined))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(path(alone))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Errorf("%s (%d bytes) differs from %s written alone (%d bytes)", combined, len(got), alone, len(want))
		}
	}
}
