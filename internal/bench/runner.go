package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel sweep runner. Every experiment is a sweep of
// fully independent simulation runs — each sweep point builds its own
// simnet.Sim, RNG, cluster, and metrics.Collector from the experiment seed,
// shares no state with its siblings, and is pure with respect to its slot in
// the result slice. Gather fans those points out to a worker pool and puts
// results back in task order, so an experiment table is byte-identical
// whether Workers is 1 or GOMAXPROCS. `bidl run -runs N` fans its seeds out
// through the same pool.

// Gather executes tasks on a pool of workers goroutines (0/1 → serial, <0 →
// GOMAXPROCS) and returns results in task order. Tasks are claimed from a
// shared atomic cursor, so long points (large org counts, long windows) don't
// convoy behind short ones.
func Gather[T any](workers int, tasks []func() T) []T {
	n := len(tasks)
	out := make([]T, n)
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	w := min(workers, n)
	if w <= 1 {
		for i, task := range tasks {
			out[i] = task()
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = tasks[i]()
			}
		}()
	}
	wg.Wait()
	return out
}
