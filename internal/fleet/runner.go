package fleet

// The task pool is the fleet tier's ONLY concurrency. Everything else in
// this package — the router, every replica's engine and serving stack —
// is single-goroutine by the same contract the eventloop analyzer
// enforces across the simulator. The pool may parallelize exactly one
// thing: disjoint tasks between two barriers. Within one epoch those are
// the shard advances plus minting the next epoch's arrivals, which
// touches only the streams, generators and mint buffers no shard reads;
// after the last epoch they are the shard drains. Tasks share no state,
// every worker joins before the function returns, and results land in
// index-addressed slots — so execution is byte-identical to the serial
// index-order walk that workers<=1 performs, at any worker count.

import (
	"sync"
	"sync/atomic"
)

// runTasks applies fn to every task index in [0, n), in index order when
// workers<=1 (the serial reference execution), or via a deterministic
// worker pool otherwise; workers claim indices in ascending order. The
// first error in index order is returned either way.
func runTasks(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	if workers <= 1 || n == 1 {
		for i := range errs {
			errs[i] = fn(i)
		}
		return firstErr(errs)
	}
	nw := min(workers, n)
	var next atomic.Int64
	//e3:concurrent deterministic task pool: tasks are disjoint between barriers, results land in index slots, and every worker joins before return
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		//e3:concurrent worker goroutines are joined by wg.Wait below; each claims whole tasks, so no simulator state is shared
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return firstErr(errs)
}

// firstErr mirrors the serial walk's error semantics: the lowest-index
// failure wins regardless of which worker hit it first.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
