package flame_test

import (
	"testing"

	"e3/internal/flame"
)

// flameCycle is one round of a two-stage pipeline on two devices: stage 0
// executes, its survivors transfer to stage 1 and fuse there, and stage 1
// executes after a gap, so every gap class lookup and stack weight runs.
type flameCycle struct {
	p      *flame.Profiler
	d0, d1 flame.Dev
	at     float64
}

func newFlameCycle() *flameCycle {
	p := flame.NewProfiler(0)
	return &flameCycle{p: p, d0: p.Register("V100-0", "V100"), d1: p.Register("V100-1", "V100")}
}

func (c *flameCycle) run() {
	t := c.at
	c.p.Execute(c.d0, "DeeBERT", 0, 1, 6, t, t+0.010, 0.001, 0.002)
	c.p.Transfer(1, t+0.010, t+0.011)
	c.p.Fuse(1, t+0.011, t+0.012)
	c.p.Execute(c.d1, "DeeBERT", 1, 7, 12, t+0.012, t+0.020, 0, 0.001)
	c.at += 0.025
}

// Once each device has run its shape, the profiler folds a whole
// execute/transfer/fuse round without allocating.
func TestFlameWarmCycleAllocatesNothing(t *testing.T) {
	c := newFlameCycle()
	c.run()
	c.run()
	if allocs := testing.AllocsPerRun(100, c.run); allocs != 0 {
		t.Fatalf("warm flame cycle: %v allocs/round, want 0", allocs)
	}
}

func BenchmarkFlameExecute(b *testing.B) {
	c := newFlameCycle()
	c.run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.run()
	}
}
