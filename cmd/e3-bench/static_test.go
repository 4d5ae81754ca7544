package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
		if err := runStaticDemo(io.Discard, out, "pipeline"); err != nil {
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

// TestStaticDemoTaxonomy: -trace-out prints each split's bubble taxonomy
// from the same run's flame profile. On the serial runner split 2's one
// device sits drained from its last batch to the end of the run, 0.7% of
// its idle time. Every split's five shares sum to 100%.
func TestStaticDemoTaxonomy(t *testing.T) {
	dir := t.TempDir()
	out := outputs{trace: filepath.Join(dir, "t.json"), flame: []string{filepath.Join(dir, "f.json")}}
	var buf bytes.Buffer
	if err := runStaticDemo(&buf, out, "serial"); err != nil {
		t.Fatal(err)
	}
	const header = "starv%  xfer%  fuse%  drain% idle%"
	if !strings.Contains(buf.String(), header) {
		t.Fatalf("no taxonomy header %q in:\n%s", header, buf.String())
	}
	// A split row: split batches samples gpus busy util starv xfer fuse
	// drain idle meanbatch histogram...
	shares := map[string][]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 12 || !strings.HasPrefix(line, "  ") {
			continue
		}
		if _, err := strconv.Atoi(f[0]); err != nil {
			continue
		}
		shares[f[0]] = f[6:11]
		sum := 0.0
		for _, v := range f[6:11] {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("split %s: share %q: %v", f[0], v, err)
			}
			sum += x
		}
		if math.Abs(sum-100) > 0.1 {
			t.Errorf("split %s: shares %v sum to %.1f, want 100.0 ± 0.1", f[0], f[6:11], sum)
		}
	}
	if len(shares) != 3 {
		t.Fatalf("got %d split rows, want 3:\n%s", len(shares), buf.String())
	}
	if got, want := strings.Join(shares["2"], " "), "99.3 0.0 0.0 0.7 0.0"; got != want {
		t.Errorf("split 2 starv/xfer/fuse/drain/idle = %s, want %s", got, want)
	}
}
