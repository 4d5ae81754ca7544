package workload

import (
	"runtime"
	"testing"
	"time"

	"e3/internal/trace"
)

// feedArrivals is an n-arrival Poisson trace.
func feedArrivals(t *testing.T, n int, seed int64) trace.Arrivals {
	t.Helper()
	arr := trace.Poisson(1000, float64(n)/1000*2+1, seed)
	if len(arr) < n {
		t.Fatalf("trace has %d arrivals, want %d", len(arr), n)
	}
	return arr[:n]
}

// TestFeedMatchesNext: a feed yields exactly the samples Next mints at the
// shifted arrival times, chunk edges included, and leaves the draw state
// where Next would, so a second feed on the same generator continues the
// same sequence.
func TestFeedMatchesNext(t *testing.T) {
	const offset, slo = 3.5, 0.1
	for _, n := range []int{0, 1, feedFirstChunk - 1, feedFirstChunk, feedFirstChunk + 1, 5000} {
		arr := feedArrivals(t, n, int64(n)+1)
		ref := NewGenerator(Mix(0.8), 42)
		g := NewGenerator(Mix(0.8), 42)
		for round := 0; round < 2; round++ {
			f := g.Feed(trace.NewSliceStream(arr), offset, slo)
			for i, at := range arr {
				want := ref.Next(offset+at, slo)
				got, ok := f.Next()
				if !ok || got != want {
					t.Fatalf("n=%d round %d sample %d: got %+v (ok=%v), want %+v", n, round, i, got, ok, want)
				}
			}
			if s, ok := f.Next(); ok {
				t.Fatalf("n=%d round %d: extra sample %+v after the stream ended", n, round, s)
			}
			f.Stop()
		}
		if got, want := g.Next(0, slo), ref.Next(0, slo); got != want {
			t.Fatalf("n=%d: draw state after the feeds is %+v, want %+v", n, got, want)
		}
	}
}

// TestFeedChunkSizes pins the chunk schedule: the first chunk holds
// feedFirstChunk samples (serving's FeedStream test straddles 64) and
// each later one doubles up to feedMaxChunk.
func TestFeedChunkSizes(t *testing.T) {
	if feedFirstChunk != 64 {
		t.Fatalf("feedFirstChunk = %d; serving's TestFeedStreamMatchesSynchronousFeed straddles 64", feedFirstChunk)
	}
	const n = 5000
	f := NewGenerator(Mix(0.8), 1).Feed(trace.NewSliceStream(feedArrivals(t, n, 1)), 0, 0.1)
	defer f.Stop()
	var sizes []int
	for {
		if _, ok := f.Next(); !ok {
			break
		}
		if f.i == 1 {
			sizes = append(sizes, len(f.cur))
		}
	}
	want := []int{64, 128, 256, 512, 1024, 1024, 1024, 968}
	if len(sizes) != len(want) {
		t.Fatalf("chunk sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("chunk sizes %v, want %v", sizes, want)
		}
	}
}

// TestLiveFeedOwnsDrawState: while a feed is live the loop may not draw or
// switch the mix; Stop joins the producer mid-stream, is idempotent, and
// hands the generator back.
func TestLiveFeedOwnsDrawState(t *testing.T) {
	before := runtime.NumGoroutine()
	g := NewGenerator(Mix(0.8), 1)
	f := g.Feed(trace.NewPoissonStream(1000, 3600, 1), 0, 0.1)
	if _, ok := f.Next(); !ok {
		t.Fatal("feed produced nothing")
	}
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"SwitchDist", func() { g.SwitchDist(Mix(0.2)) }},
		{"Next", func() { g.Next(0, 0.1) }},
		{"Draw", func() { g.Draw(0, 0.1) }},
		{"Batch", func() { g.Batch(2, 0, 0.1) }},
		{"Feed", func() { g.Feed(trace.NewSliceStream(nil), 0, 0.1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s during a live feed did not panic", c.name)
				}
			}()
			c.op()
		}()
	}
	g.Record(Sample{ID: 1}) // the loop's half stays available
	f.Stop()
	f.Stop()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, want %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	g.SwitchDist(Mix(0.2))
	g.Next(0, 0.1)
}
