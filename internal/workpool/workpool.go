// Package workpool is a process-wide worker budget shared by the outer
// sweep runner (sim.RunMany) and CORP's per-kind training goroutines inside
// each run, so nested parallelism composes without oversubscribing the
// machine: outer runs claim slots for the duration of the sweep, and an
// auto-sized run claims up to one slot per resource kind from whatever
// remains when it starts.
//
// Claims are advisory accounting, not a semaphore: a caller that was
// granted fewer slots than requested still makes progress (at worst on a
// single worker), and an explicit worker count always runs at its
// requested width — the budget only steers the auto-sizing path. Results
// never depend on how many slots a claim was granted; worker counts affect
// wall time only.
package workpool

import (
	"runtime"
	"sync/atomic"
)

// claimed is the number of worker slots currently claimed process-wide.
var claimed atomic.Int64

// Limit returns the total budget: GOMAXPROCS at the time of the call.
func Limit() int { return runtime.GOMAXPROCS(0) }

// InUse returns how many slots are currently claimed process-wide (never
// negative, and never above Limit even if racing claims momentarily
// overshoot). Farm workers report it in heartbeats so the dispatcher's
// status shows per-worker budget saturation.
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
