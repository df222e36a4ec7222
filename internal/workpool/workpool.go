// Package workpool is a process-wide worker budget shared by the outer
// sweep runner (sim.RunMany), CORP's per-kind training goroutines inside
// each run and the workload snapshot build (Do), so nested parallelism
// composes without oversubscribing the machine: outer runs claim slots for
// the duration of the sweep, and an auto-sized run or a large snapshot
// build claims what remains when it starts.
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

// Do runs task(0), …, task(n-1) and returns once every one has finished.
// It claims up to n slots; the calling goroutine is one of them, and each
// further granted slot starts one goroutine. With one slot or none granted
// (GOMAXPROCS=1, or a budget a sweep already holds) the tasks run inline in
// index order and no goroutine starts. Otherwise workers take the tasks in
// index order, so tasks must not depend on one another's effects. A panic
// in a task is recovered on its goroutine and re-raised on the caller once
// every worker has stopped; the grant is released either way.
func Do(n int, task func(i int)) {
	granted := ClaimUpTo(n)
	defer Release(granted)
	if granted <= 1 {
		for i := range n {
			task(i)
		}
		return
	}
	var (
		next     atomic.Int64
		once     sync.Once
		panicked any // the first task panic; recover never returns nil for one
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				once.Do(func() { panicked = r })
				next.Store(int64(n)) // hand out no further tasks
			}
		}()
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			task(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(granted - 1)
	for range granted - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
