package exec_test

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"e3/internal/ee"
	"e3/internal/exec"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/split_golden.txt from exec.RunSplit")

const goldenPath = "testdata/split_golden.txt"

// goldenB0 is the batch size the golden splits are compiled for; batches
// run 1..goldenB0+1, so the top size exercises the past-the-table path.
const goldenB0 = 8

// goldenSplit is one (model, layer range, GPU kind) the golden file covers.
type goldenSplit struct {
	label    string
	m        *ee.EEModel
	from, to int
	spec     gpu.Spec
}

// goldenSplits covers every ramp flavour the executor distinguishes:
// entropy (DeeBERT), sparse confidence ramps (BranchyNet), patience with a
// non-reference patience (PABEE), LM-head ramps (Llama-EE), and the
// exit-wrapper clone a plan with disabled interior ramps executes. Each
// model is cut into three contiguous splits at random boundaries, so the
// first split starts at layer 1 and the last ends at the final head.
func goldenSplits() []goldenSplit {
	rng := rand.New(rand.NewSource(13))
	dee := ee.NewDeeBERT(model.BERTBase(), 0.4)
	models := []struct {
		label string
		m     *ee.EEModel
	}{
		{"DeeBERT", dee},
		{"B-ResNet50", ee.NewBranchyNet(model.ResNet50())},
		{"PABEE", ee.NewPABEE(model.BERTLarge(), 4)},
		{"Llama-EE", ee.NewLlamaEE(model.Llama318B())},
		{"DeeBERT-wrapped", nil},
	}
	kinds := gpu.Kinds()
	var out []goldenSplit
	for i, mm := range models {
		base := dee
		if mm.m != nil {
			base = mm.m
		}
		L := base.Base.NumLayers()
		b1 := 1 + rng.Intn(L-2)
		b2 := b1 + 1 + rng.Intn(L-b1-1)
		bounds := [][2]int{{1, b1}, {b1 + 1, b2}, {b2 + 1, L}}
		m := mm.m
		if m == nil {
			plan := optimizer.Plan{DisabledInteriorRamps: true}
			for _, b := range bounds {
				plan.Splits = append(plan.Splits, optimizer.Split{From: b[0], To: b[1]})
			}
			m = plan.ExecModel(dee)
		}
		for j, b := range bounds {
			out = append(out, goldenSplit{
				label: mm.label, m: m, from: b[0], to: b[1],
				spec: gpu.Get(kinds[(i+j)%len(kinds)]),
			})
		}
	}
	return out
}

// goldenBatch draws a batch of b samples with uniform difficulties, so
// later splits see samples already past their exit as well as survivors.
func goldenBatch(rng *rand.Rand, b int) []workload.Sample {
	out := make([]workload.Sample, b)
	for i := range out {
		out[i] = workload.Sample{ID: int64(i + 1), Difficulty: rng.Float64()}
	}
	return out
}

var goldenSlowdowns = []float64{1, 1.7}

// goldenRecords runs every golden case through run and renders each Result
// as one line. run receives a split index into goldenSplits() so callers
// can compile per split once and reuse it across batch sizes.
func goldenRecords(run func(si int, sp goldenSplit, batch []workload.Sample, slowdown float64) exec.Result) []string {
	rng := rand.New(rand.NewSource(97))
	var out []string
	for si, sp := range goldenSplits() {
		for b := 1; b <= goldenB0+1; b++ {
			batch := goldenBatch(rng, b)
			for _, s := range goldenSlowdowns {
				res := run(si, sp, batch, s)
				out = append(out, formatRecord(sp, b, s, res))
			}
		}
	}
	return out
}

func g(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// formatRecord renders every Result field exactly: floats round-trip
// through 'g' -1 formatting, so equal lines mean bit-identical values.
func formatRecord(sp goldenSplit, b int, slowdown float64, r exec.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s [%d,%d] %s b=%d s=%s dur=%s handoff=%s useful=%s ramp=%s pad=%s comp=",
		sp.label, sp.from, sp.to, sp.spec.Kind, b, g(slowdown),
		g(r.Duration), g(r.HandoffDelay), g(r.UsefulFLOPs), g(r.RampTime), g(r.PadTime))
	for i, c := range r.Completions {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d:%d@%s", c.Sample.ID, c.ExitLayer, g(c.Offset))
	}
	sb.WriteString(" surv=")
	for i, s := range r.Survivors {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", s.ID)
	}
	return sb.String()
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("open golden (regenerate with -update): %v", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// checkGolden compares rendered records to the golden file line by line.
func checkGolden(t *testing.T, path string, got []string) {
	t.Helper()
	want := readGolden(t)
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, golden has %d", path, len(got), len(want))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s record %d:\n got  %s\n want %s", path, i, got[i], want[i])
			if bad++; bad == 5 {
				t.Fatal("too many mismatches")
			}
		}
	}
}

// TestSplitGoldenRunSplit pins split execution to a golden file recorded
// from exec.RunSplit before stages were compiled into tables: every Result
// field, over five models, random splits, batch sizes 1..B0+1 and two
// slowdowns. RunSplit and RunSplitInto with one warm Result (scratch
// reused across calls) must both reproduce it bit for bit.
func TestSplitGoldenRunSplit(t *testing.T) {
	runSplit := goldenRecords(func(_ int, sp goldenSplit, batch []workload.Sample, s float64) exec.Result {
		return exec.RunSplit(sp.m, sp.from, sp.to, batch, sp.spec, s)
	})
	if *update {
		writeGolden(t, runSplit)
		return
	}
	checkGolden(t, "RunSplit", runSplit)

	var warm exec.Result
	checkGolden(t, "RunSplitInto", goldenRecords(func(_ int, sp goldenSplit, batch []workload.Sample, s float64) exec.Result {
		exec.RunSplitInto(sp.m, sp.from, sp.to, batch, sp.spec, s, &warm)
		return warm
	}))
}

func writeGolden(t *testing.T, lines []string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("# exec.RunSplit over goldenSplits() x batch 1..B0+1 x slowdown {1, 1.7}; see golden_test.go.\n")
	sb.WriteString("# Regenerate only for an intended behaviour change: go test ./internal/exec/ -run TestSplitGoldenRunSplit -update\n")
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
