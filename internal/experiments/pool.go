package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// runJobs executes fn(i) for every job index i in order, a permutation of
// 0 … len(order)-1, across a bounded worker pool and returns the error of
// the lowest-indexed failing job, or nil.
//
// Jobs are claimed in the given order.  Once a job fails, no job with a
// higher index is started (already-running jobs finish), but every job
// below the lowest failing index still runs to completion, so the
// returned error is deterministic whatever the claim order.  workers <= 0
// means runtime.GOMAXPROCS(0); workers == 1 runs the jobs on the calling
// goroutine.
func runJobs(order []int, workers int, fn func(i int) error) error {
	n := len(order)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, n), 1)

	var next atomic.Int64
	var failed atomic.Int64 // lowest failing index; jobs beyond it are cancelled
	failed.Store(int64(n))
	errs := make([]error, n)
	work := func() {
		for {
			c := int(next.Add(1) - 1)
			if c >= n {
				return
			}
			i := order[c]
			if int64(i) > failed.Load() {
				continue
			}
			if err := fn(i); err != nil {
				errs[i] = err
				for {
					f := failed.Load()
					if int64(i) >= f || failed.CompareAndSwap(f, int64(i)) {
						break
					}
				}
			}
		}
	}
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// inOrder is the identity claim order over n jobs.
func inOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}
