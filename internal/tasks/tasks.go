// Package tasks is the repository's one worker pool. The planner's
// partition search and the fleet's shard runner both hand it a batch of
// disjoint tasks, and it must not change what they compute: tasks share
// no state, results land in index-addressed slots, every worker joins
// before Run returns, and the lowest-index error wins. Execution is
// therefore the same as the serial index-order walk that workers <= 1
// performs, at any worker count.
//
// It lives outside the event-loop packages: callers there run it between
// barriers, where no simulator state is shared across tasks.
package tasks

import (
	"sync"
	"sync/atomic"
)

// Run applies fn to every task index in [0, n), in index order when
// workers <= 1 or n == 1 (the serial reference execution), or via a
// deterministic worker pool otherwise; workers claim indices in ascending
// order. The first error in index order is returned either way.
func Run(n, workers int, fn func(i int) error) error {
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
