package exec_test

import (
	"testing"

	"e3/internal/exec"
	"e3/internal/workload"
)

// TestSplitGoldenTable: a compiled table reproduces the golden file bit
// for bit — one table per split, reused across batch sizes and slowdowns,
// with batch B0+1 running past the table on terms computed on the fly.
func TestSplitGoldenTable(t *testing.T) {
	tables := map[int]*exec.SplitTable{}
	var res exec.Result
	checkGolden(t, "SplitTable", goldenRecords(func(si int, sp goldenSplit, batch []workload.Sample, s float64) exec.Result {
		tbl := tables[si]
		if tbl == nil {
			tbl = exec.CompileSplit(sp.m, sp.from, sp.to, sp.spec, goldenB0)
			tables[si] = tbl
		}
		tbl.RunInto(batch, s, &res)
		return res
	}))
}

// TestSplitTablePlannedIsSplitTime: the straggler check's planned time is
// exec.SplitTime bit for bit, inside and past the table, and equals a
// healthy run's Duration exactly.
func TestSplitTablePlannedIsSplitTime(t *testing.T) {
	var res exec.Result
	for _, sp := range goldenSplits() {
		tbl := exec.CompileSplit(sp.m, sp.from, sp.to, sp.spec, goldenB0)
		for b := 0; b <= goldenB0+2; b++ {
			want := exec.SplitTime(sp.m, sp.from, sp.to, b, sp.spec)
			if got := tbl.Planned(b); got != want {
				t.Fatalf("%s [%d,%d] b=%d: Planned %v, SplitTime %v", sp.label, sp.from, sp.to, b, got, want)
			}
			batch := make([]workload.Sample, b)
			for i := range batch {
				batch[i] = workload.Sample{ID: int64(i), Difficulty: float64(i) / float64(b)}
			}
			if tbl.RunInto(batch, 1, &res); res.Duration != want {
				t.Fatalf("%s [%d,%d] b=%d: healthy Duration %v, SplitTime %v", sp.label, sp.from, sp.to, b, res.Duration, want)
			}
		}
	}
}

// TestSplitTableRunAllocationFree: with a warm Result whose output slices
// have capacity, neither a table batch nor a past-the-table batch
// allocates.
func TestSplitTableRunAllocationFree(t *testing.T) {
	sp := goldenSplits()[0]
	tbl := exec.CompileSplit(sp.m, sp.from, sp.to, sp.spec, goldenB0)
	for _, b := range []int{goldenB0, goldenB0 + 3} {
		batch := make([]workload.Sample, b)
		for i := range batch {
			batch[i] = workload.Sample{ID: int64(i), Difficulty: float64(i) / float64(b)}
		}
		res := exec.Result{
			Completions: make([]exec.Completion, 0, b),
			Survivors:   make([]workload.Sample, 0, b),
		}
		tbl.RunInto(batch, 1.3, &res)
		if n := testing.AllocsPerRun(100, func() { tbl.RunInto(batch, 1.3, &res) }); n != 0 {
			t.Errorf("batch %d: %v allocations per warm run, want 0", b, n)
		}
	}
}

func TestCompileSplitBadBoundsPanics(t *testing.T) {
	sp := goldenSplits()[0]
	defer func() {
		if recover() == nil {
			t.Error("bad split bounds did not panic")
		}
	}()
	exec.CompileSplit(sp.m, 0, sp.to, sp.spec, goldenB0)
}
