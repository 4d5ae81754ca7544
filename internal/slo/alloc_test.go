package slo

import (
	"testing"

	"e3/internal/workload"
)

// attrCycle runs one request through the pipeline lifecycle drive walks —
// queue, two stages, a merge between them, completion — under a fresh id,
// with the batch slices reused across calls as the runners reuse theirs.
type attrCycle struct {
	a     *Attribution
	id    int64
	batch [1]workload.Sample
}

func (c *attrCycle) run() {
	c.id++
	s := sample(c.id, 1.0)
	c.batch[0] = s
	c.a.Queued(s, 1.0)
	c.a.Dispatched(s, 1.2, 0)
	c.a.Executed(0, c.batch[:], 1.3, 1.5)
	c.a.Merged(s, 1.6, 1)
	c.a.Dispatched(s, 1.8, 1)
	c.a.Executed(1, c.batch[:], 1.9, 2.1)
	c.a.Completed(s, 2.2)
}

// A warm attribution — slot, parts buffer, stage totals and top-K all in
// place — records a whole request lifecycle without allocating. Every
// request ties on latency, so a later one never displaces a retained one.
func TestAttributionWarmCycleAllocatesNothing(t *testing.T) {
	c := &attrCycle{a: NewAttribution(4)}
	for i := 0; i < 8; i++ {
		c.run()
	}
	if allocs := testing.AllocsPerRun(100, c.run); allocs != 0 {
		t.Fatalf("warm attribution cycle: %v allocs/request, want 0", allocs)
	}
	if c.a.Open() != 0 || c.a.Mismatches() != 0 {
		t.Fatalf("open=%d mismatches=%d, want 0/0", c.a.Open(), c.a.Mismatches())
	}
}

func BenchmarkAttributionCycle(b *testing.B) {
	c := &attrCycle{a: NewAttribution(DefaultTopK)}
	for i := 0; i < 2*DefaultTopK; i++ {
		c.run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.run()
	}
}
