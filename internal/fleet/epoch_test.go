package fleet

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// routeAllocsPerEpoch is what one RouteEpoch allocates besides growing a
// reused buffer: the decision log's tenant rows, score rows and
// routed-count rows.
const routeAllocsPerEpoch = 3

// reusedCaps lists the capacity of every buffer RouteEpoch reuses across
// epochs: the router's scratch and decision log, and every stack's feed.
func reusedCaps(f *Fleet) []int {
	ro := f.router
	caps := []int{cap(ro.snaps), cap(ro.picks), cap(ro.Log)}
	for _, rep := range f.replicas {
		for _, rt := range rep.tenants {
			caps = append(caps, cap(rt.feed))
		}
	}
	return caps
}

// TestRouteEpochAllocsBounded runs a fleet epoch by epoch and counts the
// allocations each RouteEpoch makes once the first epoch has built the
// fleet's buffers: the decision log's fixed rows, plus at most one per
// reused buffer that reaches a new high-water mark, plus at most one per
// replica for its engine's pending-timer list, which the feed timers'
// Reset appends to when more timers are pending than ever before. That
// holds at the demo rates and at eight times them: routing allocates
// nothing per arrival.
//
// Mallocs counts every goroutine's allocations, so anything the runtime
// or another goroutine allocates at a garbage collection lands in the
// window the collection ends in. The unique package's cleanup goroutine
// (two objects per cycle) once did, when net/http reached this test
// binary through internal/serving. The binary no longer links unique,
// but any other per-cycle allocation would flake the count the same way,
// so the test runs with the collector off.
func TestRouteEpochAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, mult := range []float64{1, 8} {
		cfg := HeteroConfig(2, 1)
		cfg.Horizon = 8
		for i := range cfg.Tenants {
			cfg.Tenants[i].Rate *= mult
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatalf("rate x%g: New: %v", mult, err)
		}
		var ms runtime.MemStats
		grownTotal, minted := 0, 0
		f.mint(f.epochEnd(0))
		for e, start := 0, 0.0; start < cfg.Horizon; e++ {
			end := f.epochEnd(e)
			for _, src := range f.sources {
				minted += len(src.minted)
			}
			caps := reusedCaps(f)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			f.router.RouteEpoch(f, e, start, end)
			runtime.ReadMemStats(&ms)
			allocs := int(ms.Mallocs - before)
			grown := 0
			for i, c := range reusedCaps(f) {
				if c != caps[i] {
					grown++
				}
			}
			if e > 0 {
				grownTotal += grown
				if bound := routeAllocsPerEpoch + grown + len(f.replicas); allocs > bound {
					t.Errorf("rate x%g epoch %d: RouteEpoch allocated %d times with %d buffers grown, want at most %d",
						mult, e, allocs, grown, bound)
				}
			}
			if err := f.advance(e); err != nil {
				t.Fatalf("rate x%g: epoch %d: %v", mult, e, err)
			}
			f.burnBudgets(cfg.EpochDur)
			start = end
		}
		warm := len(f.router.Log) - 1
		t.Logf("rate x%g: %d arrivals (%d shed at the door) over %d epochs; %d buffer growths after epoch 0",
			mult, minted, f.router.ShedTotal, warm+1, grownTotal)
		// Reused buffers outgrow themselves rarely; a buffer allocated
		// afresh every epoch would count as grown in nearly every one.
		if slots := warm * len(reusedCaps(f)); 2*grownTotal > slots {
			t.Errorf("rate x%g: buffers grew %d times in %d buffer-epochs; they are not being reused",
				mult, grownTotal, slots)
		}
	}
}

// BenchmarkFleetEpoch prices one routing epoch of the 4-replica
// heterogeneous demo fleet on a long horizon, at one and two workers:
// routing, the shard advance beside the next epoch's minting, and the
// budget burn. ns/req divides the epoch by its arrivals; coord-ns/req
// counts only the serial barrier work (routing and budget burn).
func BenchmarkFleetEpoch(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := HeteroConfig(4, workers)
			cfg.Horizon = 1e4
			f, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			f.mint(f.epochEnd(0))
			arrivals, coord := 0, time.Duration(0)
			b.ReportAllocs()
			b.ResetTimer()
			start := 0.0
			for e := 0; e < b.N; e++ {
				end := f.epochEnd(e)
				for _, src := range f.sources {
					arrivals += len(src.minted)
				}
				t0 := time.Now()
				f.router.RouteEpoch(f, e, start, end)
				coord += time.Since(t0)
				if err := f.advance(e); err != nil {
					b.Fatal(err)
				}
				t0 = time.Now()
				f.burnBudgets(cfg.EpochDur)
				coord += time.Since(t0)
				start = end
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals), "ns/req")
			b.ReportMetric(float64(coord.Nanoseconds())/float64(arrivals), "coord-ns/req")
		})
	}
}
