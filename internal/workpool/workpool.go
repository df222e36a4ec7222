// Package workpool coordinates a process-wide worker budget shared by the
// outer sweep runner (sim.RunMany) and the intra-run prediction engines,
// so nested parallelism composes without oversubscribing the machine:
// outer runs claim slots for the duration of the sweep, and each inner
// engine sizes itself from whatever remains when its run starts.
//
// Claims are advisory accounting, not a semaphore: a caller that was
// granted fewer slots than requested still makes progress (at worst on a
// single worker), and an explicit worker count always runs at its
// requested width — the budget only steers the auto-sizing path. Results
// never depend on how many slots a claim was granted; worker counts affect
// wall time only.
//
// For is the index fan-out both of them shard their per-VM work with.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// claimed is the number of worker slots currently claimed process-wide.
var claimed atomic.Int64

// Limit returns the total budget: GOMAXPROCS at the time of the call.
func Limit() int { return runtime.GOMAXPROCS(0) }

// InUse returns how many slots are currently claimed process-wide (never
// negative, and never above Limit even if racing claims momentarily
// overshoot). Farm workers report it in heartbeats so the dispatcher's
// status shows per-worker engine saturation.
func InUse() int {
	n := int(claimed.Load())
	if n < 0 {
		return 0
	}
	if limit := Limit(); n > limit {
		return limit
	}
	return n
}

// ClaimUpTo claims up to n slots and returns how many were actually
// granted (possibly zero). Callers must Release exactly the granted count
// when done.
func ClaimUpTo(n int) int {
	if n <= 0 {
		return 0
	}
	for {
		cur := claimed.Load()
		free := int64(Limit()) - cur
		if free <= 0 {
			return 0
		}
		grant := int64(n)
		if grant > free {
			grant = free
		}
		if claimed.CompareAndSwap(cur, cur+grant) {
			return int(grant)
		}
	}
}

// Release returns n previously granted slots to the budget.
func Release(n int) {
	if n <= 0 {
		return
	}
	claimed.Add(int64(-n))
}

// For runs fn(i) for i in [0, n) on up to `workers` goroutines, handing out
// runs of `chunk` consecutive indices through an atomic cursor — large
// enough to amortize the atomic, small enough to balance uneven per-index
// costs. With workers <= 1 it degrades to a plain loop. fn must only write
// state owned by index i: the prediction engine's per-VM passes and the
// simulator's per-VM phases rely on that for positional, order-independent
// results.
func For(workers, n, chunk int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				start := int(cursor.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
