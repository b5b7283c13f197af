package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The parallel multi-seed engine. Every experiment driver expresses
// its workload as a slice of independent runs — each run builds its
// own isolated sim.Scheduler/sim.Network from its own seed, so runs
// share no mutable state and per-seed determinism is untouched.
// fanOut executes those runs across a pool of GOMAXPROCS workers and
// hands the results back in submission order, which keeps the
// rendered tables bit-for-bit identical to a serial execution
// (GOMAXPROCS=1) at any width.

// fanOut runs fn(i) for every i in [0, n) across the worker pool and
// returns the results indexed by i. fn must be self-contained: each
// invocation builds its own simulator instance and touches nothing
// shared. Results land in their submission slot regardless of
// completion order, so aggregation code downstream sees exactly the
// ordering a serial loop would have produced.
func fanOut[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// Seeds returns n consecutive seeds starting at base, the canonical
// way to name a multi-seed campaign.
func Seeds(base int64, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = base + int64(i)
	}
	return s
}

// RunSeeds runs one experiment once per seed across the worker pool
// and returns the results in seed order. Statistical campaigns (the
// paper's Table 1 is a population study; follow-up measurement work
// runs thousands of trials) call this with as many seeds as they can
// afford.
func RunSeeds(e Experiment, seeds []int64) []Result {
	return fanOut(len(seeds), func(i int) Result { return e.Run(seeds[i]) })
}

// RunAll runs every experiment at the given seed across the worker
// pool, returning results in paper order.
func RunAll(seed int64) []Result {
	all := All()
	return fanOut(len(all), func(i int) Result { return all[i].Run(seed) })
}
