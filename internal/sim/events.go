package sim

// This file is the event-driven simulator core: a global min-heap of
// simulation events keyed by timestamp with deterministic tie-breaking.
// Instead of offering every phase at every tick, the run advances from
// event to event — fault-free runs carry no fault events, idle stretches
// carry no arrival/retry/placement events, and the queue is empty the
// moment the horizon is reached.
//
// Two event kinds still recur every slot: telemetry (the synthetic
// resident traces fluctuate every slot, and the predictors' state advances
// per observation, so skipping a quiet slot would change every downstream
// forecast) and execute (per-slot grant scaling and the collectors'
// per-slot sums). The execute handler — the last phase of a slot — arms
// both for the next slot, and when the fleet is quiescent and the next
// real event is k > 1 slots away it first replays the whole span in one
// tight loop (span.go) and arms them at the span's end instead.
// Everything else fires only when there is work: faults only under an
// injector, refreshes once per window, arrivals/retries at their due
// times, placements only while jobs queue.

// eventKind orders same-timestamp events. The numeric order IS the phase
// order of a slot, so processing a slot's events in (time, kind) order
// runs the phases exactly as a loop offering every phase every slot would
// (the tests' reference slot loop does precisely that).
type eventKind uint8

const (
	// evFault advances the fault injector (crashes, repairs, surges).
	evFault eventKind = iota
	// evLongArrival places due long-lived jobs.
	evLongArrival
	// evTelemetry samples per-VM unused resources and feeds predictors.
	evTelemetry
	// evRefresh runs the per-window forecast refresh and adjustments.
	evRefresh
	// evArrival admits due short-job arrivals into the queue.
	evArrival
	// evRetry admits evicted jobs whose backoff has elapsed.
	evRetry
	// evPlace offers the queued jobs to the scheduler.
	evPlace
	// evExecute runs one slot on every up VM and drains outcomes.
	evExecute
)

// event is one scheduled simulator action. index carries the VM/job index
// for per-entity events (retry releases); seq breaks remaining ties in
// creation order so the heap is a total, deterministic order.
type event struct {
	time  int
	kind  eventKind
	index int
	seq   uint64
}

// before is the heap's strict ordering: timestamp, then event kind (slot
// phase), then VM/job index, then creation sequence.
func (e event) before(o event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	if e.kind != o.kind {
		return e.kind < o.kind
	}
	if e.index != o.index {
		return e.index < o.index
	}
	return e.seq < o.seq
}

// eventQueue is a slice-backed binary min-heap of events. It is
// deliberately not container/heap: events are small values and the
// interface indirection would allocate on every push in the hot loop.
type eventQueue struct {
	items []event
	seq   uint64
}

// Push schedules an event. Never-negative times only; callers clamp.
func (q *eventQueue) Push(time int, kind eventKind, index int) {
	q.seq++
	e := event{time: time, kind: kind, index: index, seq: q.seq}
	q.items = append(q.items, e)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.items[i].before(q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

// hasPendingEvents reports whether any event remains scheduled.
func (q *eventQueue) hasPendingEvents() bool { return len(q.items) > 0 }

// peekNextEventTime returns the earliest scheduled timestamp. It must not
// be called on an empty queue.
func (q *eventQueue) peekNextEventTime() int { return q.items[0].time }

// pop removes and returns the earliest event. The vacated tail element is
// zeroed before the shrink so popped events don't linger in the backing
// array across long runs (and so scans of q.items can never observe a
// stale entry past the live length).
func (q *eventQueue) pop() event {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = event{}
	q.items = q.items[:last]
	n := len(q.items)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.items[l].before(q.items[smallest]) {
			smallest = l
		}
		if r < n && q.items[r].before(q.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}

// runEventLoop drives the run. It seeds the initial events, then
// repeatedly processes the earliest one until the horizon; every handler
// calls exactly the phase method a fixed-tick loop would have run at that
// simulated time.
func (rs *runState) runEventLoop() error {
	q := &rs.events
	if rs.inj != nil {
		q.Push(0, evFault, 0)
	}
	if len(rs.longRuntimes) > 0 {
		q.Push(clampSlot(rs.longRuntimes[0].Arrival), evLongArrival, 0)
	}
	q.Push(0, evTelemetry, 0)
	q.Push(0, evRefresh, 0)
	if len(rs.runtimes) > 0 {
		q.Push(clampSlot(rs.runtimes[0].Arrival), evArrival, 0)
	}
	q.Push(0, evExecute, 0)
	for q.hasPendingEvents() && q.peekNextEventTime() < rs.horizon {
		if err := rs.processNextEvent(); err != nil {
			return err
		}
	}
	return nil
}

// processNextEvent pops the earliest event, runs its phase, and re-arms
// any follow-up events.
func (rs *runState) processNextEvent() error {
	ev := rs.events.pop()
	t := ev.time
	switch ev.kind {
	case evFault:
		// The injector draws per-slot RNG, so it must advance every slot.
		rs.advanceFaults(t)
		rs.events.Push(t+1, evFault, 0)
	case evLongArrival:
		rs.placeLongArrivals(t)
		if rs.nextLong < len(rs.longRuntimes) {
			// The cursor stalls on the next arrival (placeLongArrivals
			// scans Arrival ≤ t); max() keeps time monotonic if specs
			// arrived unsorted.
			rs.events.Push(maxSlot(rs.longRuntimes[rs.nextLong].Arrival, t+1), evLongArrival, 0)
		}
	case evTelemetry:
		// Re-armed by the evExecute handler together with the next
		// execute event, so a quiescent-span fast-forward can move both
		// past the span in one decision.
		rs.observe(t)
	case evRefresh:
		rs.refreshWindow(t)
		rs.events.Push(t+rs.window, evRefresh, 0)
	case evArrival:
		if rs.admitArrivals(t) {
			rs.armPlace(t)
		}
		if rs.nextArrival < len(rs.runtimes) {
			rs.events.Push(maxSlot(rs.runtimes[rs.nextArrival].Arrival, t+1), evArrival, 0)
		}
	case evRetry:
		// Several retries can share a release slot, so events may be
		// duplicates of an already-drained scan; admitRetries is an
		// order-preserving no-op then, and no placement is armed.
		if rs.admitRetries(t) {
			rs.armPlace(t)
		}
	case evPlace:
		if len(rs.queue) > 0 {
			if err := rs.placeQueued(t); err != nil {
				return err
			}
			if len(rs.queue) > 0 {
				// Unplaced jobs are re-offered every slot while any
				// queue.
				rs.armPlace(t + 1)
			}
		}
	case evExecute:
		rs.executeSlot(t)
		rs.armSlot(t + 1)
	}
	return nil
}

// armSlot schedules slot t's telemetry and execute events. evExecute is
// the last phase of a slot, so at call time every remaining queued event
// is a *real* event (arrival, retry, fault draw, refresh, long-job
// transition) at time ≥ t; if the earliest of them is more than one slot
// away and the fleet is quiescent, the whole span of no-op slots is
// replayed in one tight loop first and the per-slot events re-arm at the
// span's end.
func (rs *runState) armSlot(t int) {
	if end := rs.spanEnd(t); end > t {
		rs.fastForwardSpan(t, end)
		t = end
	}
	rs.events.Push(t, evTelemetry, 0)
	rs.events.Push(t, evExecute, 0)
}

// armPlace schedules a placement pass at slot t, deduplicating so at most
// one evPlace event exists per slot (arrivals and retries in the same slot
// both request one).
func (rs *runState) armPlace(t int) {
	if rs.placeArmedAt >= t {
		return
	}
	rs.placeArmedAt = t
	rs.events.Push(t, evPlace, 0)
}

func clampSlot(t int) int {
	if t < 0 {
		return 0
	}
	return t
}

func maxSlot(a, b int) int {
	if a > b {
		return a
	}
	return b
}
