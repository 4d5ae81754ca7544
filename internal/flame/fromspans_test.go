package flame_test

// Imported traces carry whatever stage numbers their JSON says: a fuse
// span with no stage argument imports as -1, and nothing bounds the rest.
// FromSpans must fold such streams without panicking, without allocating
// in proportion to the stage number, and exactly as a pipeline-sized stage
// would fold: testdata/odd_stages.folded pins the output.

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"e3/internal/flame"
	"e3/internal/telemetry"
)

var updateOdd = flag.Bool("update", false, "rewrite testdata/odd_stages.folded")

// oddStream is a two-device span stream at caller-chosen stages a and b:
// a transfer out of a overlaps the second device's gap at a+1, and a
// fusion wait at b overlaps the first device's gap before its stage-b
// batch.
func oddStream(a, b int) []telemetry.Span {
	return []telemetry.Span{
		{Track: "g0", Kind: telemetry.KindExecute, GPU: "V100", Stage: a, Start: 0, End: 0.001, Batch: 4},
		{Track: "xfer", Kind: telemetry.KindTransfer, Stage: a, Start: 0.001, End: 0.002, Batch: 2},
		{Track: "merge", Kind: telemetry.KindFuse, Stage: b, Start: 0.0015, End: 0.003, Batch: 2},
		{Track: "g1", Kind: telemetry.KindExecute, GPU: "T4", Stage: a + 1, Start: 0.0025, End: 0.004, Batch: 2},
		{Track: "g0", Kind: telemetry.KindExecute, GPU: "V100", Stage: b, Start: 0.0035, End: 0.005, Batch: 2},
		{Track: "xfer", Kind: telemetry.KindTransfer, Stage: a, Start: 0.005, End: 0.006, Batch: 1},
		{Track: "g0", Kind: telemetry.KindExecute, GPU: "V100", Stage: a, Start: 0.006, End: 0.0065, Batch: 4},
		{Track: "g1", Kind: telemetry.KindExecute, GPU: "T4", Stage: a + 1, Start: 0.0064, End: 0.007, Batch: 1},
	}
}

// oddPairs are the (a, b) stage pairs the golden file and the fuzz
// corpus start from.
var oddPairs = [][2]int{
	{0, 1}, {-1, -1}, {-5, -1}, {1 << 30, -1}, {-1, 1 << 30}, {2, -5}, {math.MaxInt, math.MinInt},
}

// reconciles checks a profile's accounting: every device satisfies
// busy − overlap − excess + bubble == horizon, and the stacks' weights
// add up to the devices' busy and bubble totals.
func reconciles(t *testing.T, pr *flame.Profile) {
	t.Helper()
	var stacks, devices int64
	for _, w := range pr.Stacks { //e3:unordered integer sum; order cannot change it
		if w <= 0 {
			t.Fatalf("stack with weight %d", w)
		}
		stacks += w
	}
	for _, d := range pr.Devices {
		if got := d.BusyNanos - d.OverlapNanos - d.ExcessNanos + d.BubbleNanos; got != d.HorizonNanos {
			t.Fatalf("device %s: busy-overlap-excess+bubble = %d, horizon %d", d.ID, got, d.HorizonNanos)
		}
		devices += d.BusyNanos + d.BubbleNanos
	}
	if stacks != devices {
		t.Fatalf("stacks weigh %dns, devices account %dns", stacks, devices)
	}
}

func TestFromSpansOddStages(t *testing.T) {
	var got bytes.Buffer
	for _, ab := range oddPairs {
		pr := flame.FromSpans(oddStream(ab[0], ab[1]))
		reconciles(t, pr)
		fmt.Fprintf(&got, "# stages %d %d\n", ab[0], ab[1])
		got.Write(pr.Folded())
	}
	const golden = "testdata/odd_stages.folded"
	if *updateOdd {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("odd-stage folds differ from %s (regenerate with -update only for an intended change)", golden)
	}
}

// A stage near 1<<30 must cost what stage 0 costs, not a table that size.
func TestFromSpansHugeStageAllocatesLittle(t *testing.T) {
	spans := oddStream(1<<30, -(1 << 30))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	flame.FromSpans(spans)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("FromSpans at stage 1<<30 allocated %d bytes", got)
	}
}

func FuzzFromSpans(f *testing.F) {
	for _, ab := range oddPairs {
		f.Add(ab[0], ab[1])
	}
	f.Fuzz(func(t *testing.T, a, b int) {
		reconciles(t, flame.FromSpans(oddStream(a, b)))
	})
}
