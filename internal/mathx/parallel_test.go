package mathx

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestParallelForVisitsEachIndexOnce runs ParallelFor at GOMAXPROCS 1 and 4
// over counts below, at and above the worker count: every index must be
// visited exactly once, and none outside [0, n).
func TestParallelForVisitsEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 4, 5, 1000} {
			visits := make([]atomic.Int32, n)
			ParallelFor(n, func(i int) { visits[i].Add(1) })
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Errorf("GOMAXPROCS %d, n %d: index %d visited %d times", procs, n, i, got)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
