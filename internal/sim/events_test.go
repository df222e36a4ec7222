package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventQueueOrdering pins the heap's total order: timestamp first,
// then event kind (the slot loop's phase order), then VM/job index, then
// creation sequence.
func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	// Push a slot's phases out of order at two timestamps plus index ties.
	q.Push(2, evExecute, 0)
	q.Push(1, evPlace, 0)
	q.Push(1, evFault, 0)
	q.Push(1, evRetry, 9)
	q.Push(1, evRetry, 4)
	q.Push(1, evArrival, 0)
	q.Push(2, evFault, 0)
	q.Push(1, evTelemetry, 0)

	want := []event{
		{time: 1, kind: evFault},
		{time: 1, kind: evTelemetry},
		{time: 1, kind: evArrival},
		{time: 1, kind: evRetry, index: 4},
		{time: 1, kind: evRetry, index: 9},
		{time: 1, kind: evPlace},
		{time: 2, kind: evFault},
		{time: 2, kind: evExecute},
	}
	if !q.hasPendingEvents() || q.peekNextEventTime() != 1 {
		t.Fatalf("peek = %d, want 1", q.peekNextEventTime())
	}
	for i, w := range want {
		got := q.pop()
		if got.time != w.time || got.kind != w.kind || got.index != w.index {
			t.Fatalf("pop %d = {t%d k%d i%d}, want {t%d k%d i%d}",
				i, got.time, got.kind, got.index, w.time, w.kind, w.index)
		}
	}
	if q.hasPendingEvents() {
		t.Fatal("queue not drained")
	}
}

// TestEventQueueSeqTieBreak: identical (time, kind, index) events pop in
// creation order, so duplicate retry releases stay deterministic.
func TestEventQueueSeqTieBreak(t *testing.T) {
	var q eventQueue
	for i := 0; i < 5; i++ {
		q.Push(3, evRetry, 1)
	}
	var prev uint64
	for i := 0; i < 5; i++ {
		e := q.pop()
		if e.seq <= prev {
			t.Fatalf("pop %d: seq %d not increasing past %d", i, e.seq, prev)
		}
		prev = e.seq
	}
}

// TestEventQueueRandomized cross-checks the hand-rolled heap against a
// sorted reference on a few thousand random push/pop interleavings.
func TestEventQueueRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q eventQueue
	var ref []event
	for i := 0; i < 5000; i++ {
		if rng.Intn(3) > 0 || len(ref) == 0 {
			tm, k, idx := rng.Intn(50), eventKind(rng.Intn(8)), rng.Intn(10)
			q.Push(tm, k, idx)
			ref = append(ref, event{time: tm, kind: k, index: idx, seq: q.seq})
		} else {
			sort.Slice(ref, func(a, b int) bool { return ref[a].before(ref[b]) })
			got, want := q.pop(), ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("step %d: pop %+v, want %+v", i, got, want)
			}
		}
	}
}

// TestEventQueueDuplicateTimestampDrain is the drain-order property test
// with the adversarial shape the event core actually produces: many
// duplicate evPlace/evRetry events sharing timestamps (several retries
// released in one slot, re-armed placement passes). The whole queue is
// drained at once and every pop must follow the exact (time, kind, index,
// seq) order.
func TestEventQueueDuplicateTimestampDrain(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref []event
		push := func(tm int, k eventKind, idx int) {
			q.Push(tm, k, idx)
			ref = append(ref, event{time: tm, kind: k, index: idx, seq: q.seq})
		}
		for i := 0; i < 400; i++ {
			tm := rng.Intn(8) // few timestamps → heavy duplication
			switch rng.Intn(4) {
			case 0:
				push(tm, evPlace, 0)
			case 1:
				push(tm, evRetry, rng.Intn(3))
			case 2:
				// Duplicate the same (time, kind, index) several times:
				// only seq breaks the tie.
				for d := 0; d < 3; d++ {
					push(tm, evRetry, 1)
				}
			default:
				push(tm, eventKind(rng.Intn(8)), rng.Intn(4))
			}
		}
		sort.Slice(ref, func(a, b int) bool { return ref[a].before(ref[b]) })
		for i, want := range ref {
			if !q.hasPendingEvents() {
				t.Fatalf("seed %d: queue empty at pop %d/%d", seed, i, len(ref))
			}
			if got := q.pop(); got != want {
				t.Fatalf("seed %d pop %d: %+v, want %+v", seed, i, got, want)
			}
		}
		if q.hasPendingEvents() {
			t.Fatalf("seed %d: queue not drained", seed)
		}
	}
}

// FuzzArmPlaceDedup fuzzes armPlace's monotonic dedup against a naive
// model: a sorted slice of armed slots where an arm(t) request is accepted
// only if t is strictly greater than every previously armed slot. The
// queue must hold exactly the accepted slots' evPlace events (at most one
// per slot), in order.
func FuzzArmPlaceDedup(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 3, 2, 5})
	f.Add([]byte{7, 7, 7})
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, arms []byte) {
		rs := &runState{placeArmedAt: -1}
		var model []int // accepted arm times, strictly increasing
		for _, b := range arms {
			at := int(b % 32)
			rs.armPlace(at)
			if len(model) == 0 || at > model[len(model)-1] {
				model = append(model, at)
			}
		}
		var got []int
		for rs.events.hasPendingEvents() {
			e := rs.events.pop()
			if e.kind != evPlace {
				t.Fatalf("non-evPlace event %+v in queue", e)
			}
			got = append(got, e.time)
		}
		if len(got) != len(model) {
			t.Fatalf("armed %v, queue drained %v", model, got)
		}
		for i := range got {
			if got[i] != model[i] {
				t.Fatalf("pop %d: slot %d, want %d (model %v, got %v)", i, got[i], model[i], model, got)
			}
		}
	})
}

// TestEventQueuePopClearsTail is the retention regression for pop: the
// vacated tail slot must be zeroed before the shrink, so long-lived queues
// don't pin popped events in the backing array (and so any scan of the
// full backing storage can never observe a stale entry past the live
// length).
func TestEventQueuePopClearsTail(t *testing.T) {
	var q eventQueue
	for i := 0; i < 64; i++ {
		q.Push(i, evExecute, i)
	}
	backing := q.items[:cap(q.items)]
	for i := 0; q.hasPendingEvents(); i++ {
		e := q.pop()
		if e.time != i {
			t.Fatalf("pop %d: time %d", i, e.time)
		}
		for j := len(q.items); j < len(backing); j++ {
			if backing[j] != (event{}) {
				t.Fatalf("after pop %d: backing[%d] = %+v still live past len %d",
					i, j, backing[j], len(q.items))
			}
		}
	}
}
