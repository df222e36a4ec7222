package workpool

import (
	"sync"
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
