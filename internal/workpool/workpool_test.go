package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// reset drains any leaked claims between tests.
func reset() { claimed.Store(0) }

func TestClaimUpToBounds(t *testing.T) {
	reset()
	limit := Limit()
	if InUse() != 0 {
		t.Fatalf("fresh budget: %d in use, want 0", InUse())
	}
	got := ClaimUpTo(limit + 5)
	if got != limit {
		t.Fatalf("over-claim granted %d, want %d", got, limit)
	}
	if InUse() != limit {
		t.Fatalf("%d in use after full claim, want %d", InUse(), limit)
	}
	if extra := ClaimUpTo(1); extra != 0 {
		t.Fatalf("claim on empty budget granted %d", extra)
	}
	Release(got)
	if InUse() != 0 {
		t.Fatalf("release did not restore budget: %d in use", InUse())
	}
}

func TestInUseTracksClaims(t *testing.T) {
	reset()
	if InUse() != 0 {
		t.Fatalf("fresh budget: in use %d, want 0", InUse())
	}
	got := ClaimUpTo(1)
	if InUse() != got {
		t.Fatalf("in use %d after claiming %d", InUse(), got)
	}
	Release(got)
	if InUse() != 0 {
		t.Fatalf("in use %d after release", InUse())
	}
}

func TestClaimZeroAndNegative(t *testing.T) {
	reset()
	if ClaimUpTo(0) != 0 || ClaimUpTo(-3) != 0 {
		t.Fatal("non-positive claims must grant nothing")
	}
	Release(0)
	Release(-2)
	if InUse() != 0 {
		t.Fatalf("no-op releases changed the budget: %d in use", InUse())
	}
}

// TestConcurrentClaims hammers the budget from many goroutines: the total
// outstanding claim must never exceed the limit, and everything released
// must restore a full budget.
func TestConcurrentClaims(t *testing.T) {
	reset()
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := ClaimUpTo(1 + g%3)
				if int(claimed.Load()) > Limit() {
					t.Errorf("claimed exceeds limit")
				}
				Release(n)
			}
		}(g)
	}
	wg.Wait()
	if InUse() != 0 {
		t.Fatalf("budget leaked: %d still in use", InUse())
	}
}

// TestDoRunsEveryTaskOnce runs more tasks than slots on a free budget: each
// task runs exactly once and the grant is released.
func TestDoRunsEveryTaskOnce(t *testing.T) {
	reset()
	const n = 37
	var runs [n]atomic.Int32
	Do(n, func(i int) { runs[i].Add(1) })
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, got)
		}
	}
	if InUse() != 0 {
		t.Fatalf("%d slots still claimed after Do", InUse())
	}
}

// TestDoInlineWithoutGrant pins the inline path: at GOMAXPROCS=1, or with
// every slot already claimed, Do starts no goroutine and runs the tasks on
// the caller in index order.
func TestDoInlineWithoutGrant(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func() (undo func())
	}{
		{"gomaxprocs1", func() func() {
			prev := runtime.GOMAXPROCS(1)
			return func() { runtime.GOMAXPROCS(prev) }
		}},
		{"exhausted", func() func() {
			held := ClaimUpTo(Limit())
			return func() { Release(held) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reset()
			undo := tc.setup()
			defer undo()
			// Goroutines of earlier tests may still be exiting, so the count
			// can fall while Do runs, but it must not rise.
			before := runtime.NumGoroutine()
			var order []int
			Do(5, func(i int) {
				if g := runtime.NumGoroutine(); g > before {
					t.Errorf("task %d: %d goroutines, more than the %d before Do", i, g, before)
				}
				order = append(order, i)
			})
			for i, got := range order {
				if got != i {
					t.Fatalf("inline order %v, want ascending", order)
				}
			}
			if len(order) != 5 {
				t.Fatalf("ran %d tasks, want 5", len(order))
			}
		})
	}
}

// TestDoPanicReachesCaller panics in one task on a free budget: the panic
// value surfaces on the caller, and the budget is whole again.
func TestDoPanicReachesCaller(t *testing.T) {
	reset()
	var got any
	func() {
		defer func() { got = recover() }()
		Do(4, func(i int) {
			if i == 2 {
				panic("task 2 failed")
			}
		})
	}()
	if got != "task 2 failed" {
		t.Fatalf("recovered %v, want the task's panic value", got)
	}
	if InUse() != 0 {
		t.Fatalf("%d slots still claimed after a panicking Do", InUse())
	}
}
