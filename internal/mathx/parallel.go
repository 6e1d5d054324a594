package mathx

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelFor calls fn(i) once for every i in [0, n) on up to GOMAXPROCS
// goroutines and returns when every call has returned. Indices are handed
// out in ascending order, but the calls overlap and finish in any order,
// so each call must write only its own index's output; a caller that
// merges the outputs in index order gets the same result at any
// parallelism.
func ParallelFor(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
