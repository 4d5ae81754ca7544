package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"e3/internal/flame"
)

// TestStaticDemoCombined: -trace-out and -flame-out together profile and
// trace one demo run, and each file is byte-identical to the one its flag
// writes alone. One run writes the profile in all three formats; its
// folded and pprof files must match the JSON profile read back and
// re-exported.
func TestStaticDemoCombined(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	for _, out := range []outputs{
		{trace: path("both.trace.json"), flame: []string{path("both.flame.json")}},
		{trace: path("trace.json")},
		{flame: []string{path("flame.json")}},
		{flame: []string{path("x.json"), path("x.folded"), path("x.pb.gz")}},
		{flame: []string{path("alone.folded")}},
		{flame: []string{path("alone.pb.gz")}},
	} {
		if err := runStaticDemo(out, "pipeline"); err != nil {
			t.Fatalf("runStaticDemo(%+v): %v", out, err)
		}
	}
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(path(name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for combined, alone := range map[string]string{
		"both.trace.json": "trace.json",
		"both.flame.json": "flame.json",
		"x.json":          "flame.json",
		"x.folded":        "alone.folded",
		"x.pb.gz":         "alone.pb.gz",
	} {
		got, want := read(combined), read(alone)
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Errorf("%s (%d bytes) differs from %s written alone (%d bytes)", combined, len(got), alone, len(want))
		}
	}

	prof, err := flame.ReadProfile(bytes.NewReader(read("x.json")))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read("x.folded"), prof.Folded()) {
		t.Error("x.folded differs from the folded stacks of the profile read back from x.json")
	}
	var pb bytes.Buffer
	if err := prof.WritePprof(&pb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read("x.pb.gz"), pb.Bytes()) {
		t.Error("x.pb.gz differs from the pprof of the profile read back from x.json")
	}
}
