package serving

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/scheduler"
	"e3/internal/sim"
	"e3/internal/trace"
	"e3/internal/workload"
)

// feeder schedules a stream's arrivals into a batcher, as FeedStream does.
type feeder func(eng *sim.Engine, b *Batcher, st trace.Stream, offset float64, gen *workload.Generator, slo float64) (stop func())

// syncFeed is the synchronous reference: one timer that mints each sample
// with gen.Next on the event loop when it arrives and pulls the next
// arrival time from the stream.
func syncFeed(eng *sim.Engine, b *Batcher, st trace.Stream, offset float64, gen *workload.Generator, slo float64) (stop func()) {
	var arrivals *sim.Timer
	arrivals = eng.NewTimer(func() {
		b.Arrive(gen.Next(eng.Now(), slo))
		if at, ok := st.Next(); ok {
			arrivals.Reset(offset + at)
		}
	})
	if at, ok := st.Next(); ok {
		arrivals.Reset(offset + at)
	}
	return arrivals.Stop
}

// feedPlan is a two-stage pipeline of about 400 req/s, so the 600 req/s
// feed below both serves and sheds.
var feedPlan = optimizer.Plan{
	Splits: []optimizer.Split{
		{From: 1, To: 6, Kind: gpu.V100, Replicas: 1, StageTime: 0.010, CommTime: 0.001},
		{From: 7, To: 12, Kind: gpu.V100, Replicas: 1, StageTime: 0.010},
	},
	Batch:         4,
	CycleTime:     0.010,
	Pipelined:     true,
	ModelParallel: true,
}

// feedOutcome is everything a feed could perturb.
type feedOutcome struct {
	digest    string
	processed uint64
	quantiles [4]float64
	// after is the generator's next draw once the run is over, which
	// pins how far the draw state advanced.
	after workload.Sample
}

// runFeed serves the first n arrivals of a 600 req/s Poisson trace,
// shifted by offset, through an audited pipeline fed by feed.
func runFeed(t *testing.T, feed feeder, n int, offset float64, seed int64) feedOutcome {
	t.Helper()
	arr := trace.Poisson(600, float64(n)/600*2+1, seed)
	if len(arr) < n {
		t.Fatalf("trace has %d arrivals, want %d", len(arr), n)
	}
	eng := sim.NewEngine()
	coll := scheduler.NewCollector(12, 0.1, 0)
	coll.Audit = audit.NewLedger()
	p, err := scheduler.NewPipeline(eng, cluster.Homogeneous(gpu.V100, 2), ee.NewDeeBERT(model.BERTBase(), 0.4), feedPlan, coll)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(eng, p, feedPlan.Batch, 0.02, 0.2)
	gen := workload.NewGenerator(workload.Mix(0.8), seed)
	gen.SetSink(coll)
	stop := feed(eng, b, trace.NewSliceStream(arr[:n]), offset, gen, 0.1)
	defer stop()
	if _, err := drainRun(eng, p, b); err != nil {
		t.Fatal(err)
	}
	stop()
	if rep := coll.AuditReport(); !rep.OK() || rep.Samples != n {
		t.Fatalf("audit: %d of %d samples, %v", rep.Samples, n, rep.Err())
	}
	out := feedOutcome{digest: coll.Audit.Digest(), processed: eng.Processed(), after: gen.Draw(0, 0)}
	for i, q := range []float64{0.5, 0.9, 0.99, 1} {
		out.quantiles[i] = coll.Lat.Quantile(q)
	}
	return out
}

// TestFeedStreamMatchesSynchronousFeed: minting ahead on the producer
// changes nothing the run can observe. Ledger digest, event count,
// latency quantiles and the generator's final draw state match the
// synchronous reference for empty, one-arrival, first-chunk-edge and
// multi-chunk streams, at two offsets, on one and on two procs.
func TestFeedStreamMatchesSynchronousFeed(t *testing.T) {
	// 63/64/65 straddle the feed's 64-sample first chunk (workload's
	// TestFeedChunkSizes pins that size); 5000 spans every chunk size up
	// to the cap and several chunks at it.
	lengths := []int{0, 1, 63, 64, 65, 5000}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, seed := range []int64{1, 42, 97} {
			for _, offset := range []float64{0, 3.5} {
				for _, n := range lengths {
					name := fmt.Sprintf("procs=%d/seed=%d/offset=%v/n=%d", procs, seed, offset, n)
					want := runFeed(t, syncFeed, n, offset, seed)
					got := runFeed(t, FeedStream, n, offset, seed)
					if got != want {
						t.Errorf("%s: FeedStream run differs from the synchronous feed:\n got  events=%d quantiles=%v after=%+v\n want events=%d quantiles=%v after=%+v (digests equal: %v)",
							name, got.processed, got.quantiles, got.after, want.processed, want.quantiles, want.after, got.digest == want.digest)
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// want: a joined producer may still be returning when Stop does.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the run, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunOpenLoopStreamAbortJoinsFeed: an event-limit abort mid-feed
// returns the error and leaves no producer running, and the generator is
// the caller's again.
func TestRunOpenLoopStreamAbortJoinsFeed(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := sim.NewEngine()
	eng.SetEventLimit(300)
	coll := scheduler.NewCollector(12, 0.1, 0)
	p, err := scheduler.NewPipeline(eng, cluster.Homogeneous(gpu.V100, 2), ee.NewDeeBERT(model.BERTBase(), 0.4), feedPlan, coll)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(eng, p, feedPlan.Batch, 0.02, 0.2)
	gen := workload.NewGenerator(workload.Mix(0.8), 7)
	if _, err := RunOpenLoopStream(eng, p, b, trace.NewPoissonStream(600, 60, 7), gen, 0.1); err == nil {
		t.Fatal("run of 36k arrivals under a 300-event limit did not abort")
	}
	waitGoroutines(t, before)
	gen.SwitchDist(workload.Mix(0.2)) // panics if the feed still owned gen
}

// countStream yields n arrivals a millisecond apart.
type countStream struct{ i, n int }

func (s *countStream) Next() (float64, bool) {
	if s.i == s.n {
		return 0, false
	}
	s.i++
	return float64(s.i) * 1e-3, true
}

// recycleRunner takes every batch and hands it straight back to the pool.
type recycleRunner struct {
	coll *scheduler.Collector
	pool *workload.BatchPool
}

func (r *recycleRunner) Ingest(b []workload.Sample)      { r.pool.Put(b) }
func (r *recycleRunner) Collector() *scheduler.Collector { return r.coll }

// BenchmarkFeedStream prices one streamed arrival (one op): the mint (on
// the loop for "sync", the reference feed; ahead of it for "ahead",
// FeedStream), the arrival timer, and a batch-1 batcher whose runner
// recycles each batch at once. allocs/op counts the whole feed, producer
// included.
func BenchmarkFeedStream(b *testing.B) {
	for _, c := range []struct {
		name string
		feed feeder
	}{{"sync", syncFeed}, {"ahead", FeedStream}} {
		b.Run(c.name, func(b *testing.B) {
			eng := sim.NewEngine()
			pool := workload.NewBatchPool()
			bt := NewBatcher(eng, &recycleRunner{coll: scheduler.NewCollector(12, 0.1, 0), pool: pool}, 1, 0, 0)
			bt.SetPool(pool)
			gen := workload.NewGenerator(workload.Mix(0.8), 1)
			b.ReportAllocs()
			b.ResetTimer()
			stop := c.feed(eng, bt, &countStream{n: b.N}, 0, gen, 0.1)
			if err := eng.RunAll(); err != nil {
				b.Fatal(err)
			}
			stop()
		})
	}
}
