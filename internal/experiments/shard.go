package experiments

import (
	"sync"
	"sync/atomic"
)

// forEach runs fn(0..n-1) across at most par goroutines and returns the
// lowest-index error among the tasks that ran.
// It is the sharding primitive of the experiment drivers: independent
// workloads of a table and independent curves of a figure fan out across
// the worker pool instead of running serially. The first failure stops
// not-yet-started tasks (in-flight ones finish), so a bad point does not
// burn the rest of a large sweep before the error surfaces.
func forEach(par, n int, fn func(i int) error) error {
	return forEachWorker(par, n, func(_, i int) error { return fn(i) })
}

// forEachWorker is forEach that also tells fn which worker runs task i:
// worker is in [0, par) and no two tasks run on one worker at once, so
// fn may keep per-worker state (a metrics.Search) in a slice of par.
func forEachWorker(par, n int, fn func(worker, i int) error) error {
	if par <= 0 || par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if failed.Load() {
					continue
				}
				if errs[i] = fn(w, i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
