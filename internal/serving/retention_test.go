package serving

import (
	"strings"
	"testing"

	"e3/internal/scheduler"
	"e3/internal/sim"
	"e3/internal/trace"
	"e3/internal/workload"
)

// tailOf exposes the queue's full backing array so tests can assert that
// samples which left the queue were actually zeroed rather than stranded
// alive beyond len.
func tailOf(b *Batcher) []workload.Sample {
	return b.queue[len(b.queue):cap(b.queue)]
}

// Regression: flush rebuilt the queue with `kept := b.queue[:0]` and never
// cleared the vacated tail, so every shed sample stayed alive in the
// backing array until a future append happened to overwrite it — retained
// memory that grew with drop volume on long-horizon runs. The fix zeroes
// the tail in place; this test fails if that zeroing is reverted.
func TestBatcherFlushZeroesShedTail(t *testing.T) {
	eng := sim.NewEngine()
	f := &fakeRunner{coll: scheduler.NewCollector(12, 1, 0)}
	b := NewBatcher(eng, f, 100, 0.01, 0.2)

	// Head is comfortably viable; the rest become hopeless by t=0.015.
	eng.At(0, func() {
		b.Arrive(workload.Sample{ID: 1, Arrival: 0, Deadline: 10})
		for i := int64(2); i <= 6; i++ {
			b.Arrive(workload.Sample{ID: i, Arrival: 0, Deadline: 0.02})
		}
	})
	eng.At(0.015, func() { b.flush() })
	if err := eng.Run(0.016); err != nil {
		t.Fatal(err)
	}

	if f.coll.Dropped != 5 {
		t.Fatalf("dropped = %d, want 5 hopeless samples shed", f.coll.Dropped)
	}
	if len(b.queue) != 1 || b.queue[0].ID != 1 {
		t.Fatalf("queue after flush = %v, want only the viable head", b.queue)
	}
	for i, s := range tailOf(b) {
		if s != (workload.Sample{}) {
			t.Fatalf("backing array slot %d retains shed sample %+v after flush", len(b.queue)+i, s)
		}
	}
}

// Regression: dispatch advanced the queue with `b.queue = b.queue[n:]`,
// stranding every dispatched prefix in the backing array and shedding
// capacity until the next realloc. The in-place compaction must leave the
// remainder at the front and nothing live beyond len.
func TestBatcherDispatchCompactsAndZeroesQueue(t *testing.T) {
	eng := sim.NewEngine()
	f := &fakeRunner{coll: scheduler.NewCollector(12, 1, 0)}
	b := NewBatcher(eng, f, 4, 0.01, 0.2)

	eng.At(0, func() {
		for i := int64(1); i <= 6; i++ {
			b.Arrive(workload.Sample{ID: i, Arrival: 0, Deadline: 10})
		}
	})
	if err := eng.Run(0.001); err != nil {
		t.Fatal(err)
	}

	if len(f.batches) != 1 || len(f.batches[0]) != 4 {
		t.Fatalf("batches = %v, want one full batch of 4", f.batches)
	}
	if len(b.queue) != 2 || b.queue[0].ID != 5 || b.queue[1].ID != 6 {
		t.Fatalf("queue remainder = %v, want samples 5,6 at the front", b.queue)
	}
	for i, s := range tailOf(b) {
		if s != (workload.Sample{}) {
			t.Fatalf("backing array slot %d retains dispatched sample %+v", len(b.queue)+i, s)
		}
	}
}

// poolingRunner returns every ingested batch to the pool after copying its
// contents, the way the pipeline runner does once completions and
// survivors are copied out.
type poolingRunner struct {
	fakeRunner
	pool *workload.BatchPool
}

func (r *poolingRunner) Ingest(batch []workload.Sample) {
	r.batches = append(r.batches, append([]workload.Sample(nil), batch...))
	r.pool.Put(batch)
}

// TestBatcherPoolRoundTrip pins the pooled dispatch contract: recycled
// arrays must carry exactly the queued samples (fully overwritten, exact
// length) and the second dispatch must be served from the free list.
func TestBatcherPoolRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	pool := workload.NewBatchPool()
	r := &poolingRunner{fakeRunner: fakeRunner{coll: scheduler.NewCollector(12, 1, 0)}, pool: pool}
	b := NewBatcher(eng, r, 4, 0.01, 0.2)
	b.SetPool(pool)

	eng.At(0, func() {
		for i := int64(1); i <= 8; i++ {
			b.Arrive(workload.Sample{ID: i, Arrival: 0, Deadline: 10})
		}
	})
	if err := eng.Run(0.001); err != nil {
		t.Fatal(err)
	}

	if len(r.batches) != 2 {
		t.Fatalf("dispatched %d batches, want 2", len(r.batches))
	}
	want := int64(1)
	for _, batch := range r.batches {
		for _, s := range batch {
			if s.ID != want {
				t.Fatalf("pooled dispatch reordered or corrupted samples: got ID %d, want %d", s.ID, want)
			}
			want++
		}
	}
	gets, hits := pool.Stats()
	if gets != 2 || hits != 1 {
		t.Fatalf("pool stats gets=%d hits=%d, want 2 gets with the second served from the free list", gets, hits)
	}
}

// Regression: the open-loop run discarded the engine's error, so an
// event-limit abort produced a silently truncated collector. The run must
// surface the abort and must not clobber a stricter caller-set limit with
// its own backstop.
func TestRunOpenLoopPropagatesEventLimitAbort(t *testing.T) {
	eng := sim.NewEngine()
	eng.SetEventLimit(3)
	f := &fakeRunner{coll: scheduler.NewCollector(12, 1, 0)}
	b := NewBatcher(eng, f, 4, 0.01, 0.2)
	gen := workload.NewGenerator(workload.Mix(0.8), 1)
	arr := trace.Arrivals{0.001, 0.002, 0.003, 0.004, 0.005, 0.006}

	_, err := RunOpenLoopStream(eng, f, b, trace.NewSliceStream(arr), gen, 1.0)
	if err == nil {
		t.Fatal("event-limit abort was swallowed; want an error naming the pending backlog")
	}
	if !strings.Contains(err.Error(), "pending") {
		t.Fatalf("abort error %q does not report the pending event count", err)
	}
	if got := eng.EventLimit(); got != 3 {
		t.Fatalf("driver clobbered the caller's event limit: got %d, want 3", got)
	}
}

// BenchmarkBatcherFlush measures the shed-and-rebuild path: half the queue
// hopeless, half kept, rebuilt in place each iteration.
func BenchmarkBatcherFlush(b *testing.B) {
	eng := sim.NewEngine()
	f := &fakeRunner{coll: scheduler.NewCollector(12, 1, 0)}
	bt := NewBatcher(eng, f, 1024, 0.01, 0.2)
	samples := make([]workload.Sample, 64)
	for i := range samples {
		d := 1000.0
		if i%2 == 1 {
			d = 0.001 // hopeless at t=0: shed on every flush
		}
		samples[i] = workload.Sample{ID: int64(i + 1), Arrival: 0, Deadline: d}
	}
	// A check pending at t=0 precedes every head's fire time, so flush
	// never re-arms.
	bt.flushTimer.Reset(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.queue = append(bt.queue[:0], samples...)
		bt.flush()
	}
}
