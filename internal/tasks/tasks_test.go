package tasks

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunEveryIndexOnce: at any worker count, every index in [0, n) runs
// exactly once and its result lands in its own slot.
func TestRunEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 33} {
			runs := make([]atomic.Int32, n)
			out := make([]int, n)
			if err := Run(n, workers, func(i int) error {
				runs[i].Add(1)
				out[i] = i * i
				return nil
			}); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
				if out[i] != i*i {
					t.Errorf("workers=%d n=%d: slot %d = %d, want %d", workers, n, i, out[i], i*i)
				}
			}
		}
	}
}

// TestRunLowestIndexErrorWins: Run returns the lowest-index error, as
// the serial walk does, even when a higher index fails first.
func TestRunLowestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		late := make(chan struct{})
		var runs atomic.Int32
		err := Run(33, workers, func(i int) error {
			runs.Add(1)
			switch i {
			case 5:
				if workers > 1 {
					// Fail only after index 20 has failed.
					select {
					case <-late:
					case <-time.After(10 * time.Second):
						t.Error("index 20 never ran while index 5 waited")
					}
				}
				return errors.New("task 5")
			case 20:
				if workers > 1 {
					defer close(late)
				}
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 5" {
			t.Errorf("workers=%d: err = %v, want task 5", workers, err)
		}
		if got := runs.Load(); got != 33 {
			t.Errorf("workers=%d: %d tasks ran, want all 33", workers, got)
		}
	}
}
