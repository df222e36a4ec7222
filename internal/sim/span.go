package sim

import "repro/internal/resource"

// This file is the quiescent-span fast-forward (DESIGN.md §5f): when the
// slots from t on would each be a pure telemetry+execute slot with nothing
// running, nextSlot replays them in one tight loop instead of one runSlot
// per slot. spanEnd computes the span's bound:
//
//   - no timeline is recorded (it snapshots every slot);
//   - no fault injector exists. Down VMs, surges and retries arise only
//     under one, and its RNG draws every slot, so faulted runs never form a
//     span;
//   - no long or short job runs and none queues, so executeSlot(t) would
//     fold only every VM's ledgers and resident demand, and the ledgers
//     cannot change until a job is placed;
//   - the span ends before the next refresh slot, the next short or long
//     arrival, and the horizon, whichever comes first.
//
// With nothing down, surged or hosting a long job, observe(t) would serve
// the table rows for t mod Period untouched, so the replay hands those rows
// on directly.
//
// Bit-exactness recipe (refreshWindow's AddCommRepeat recipe, applied to
// the telemetry/collector folds): every per-slot accumulation is applied as
// repeated additions in the identical per-slot order the normal path would
// perform — one collector.Observe with zero vectors and one
// clusterCollector.Observe per slot, with the cluster demand taken from
// the table's precomputed per-phase row sum (itself folded in ascending VM
// order, executeSlot's exact addition sequence) and the cluster allocation
// from one per-span fold of the live vmState ledgers in VM order (constant
// across the span, so each slot's fold would produce the identical bits).
// Predictor ring feeds go through the scheduler's ObserveSpan, which replays
// the same per-VM appends in the same per-predictor order (CORP's, one
// ObserveAll per slot, keeps its shared training stream slot-major), so any
// worker count stays bit-identical.
//
// In-span slots drain no prediction outcomes: predictions are recorded
// only during Refresh and mature exactly at the next refresh slot's
// observe (every scheme's tracker window equals its scheduler window —
// they share one config field), and the next refresh slot always bounds
// the span, so the skipped per-slot DrainOutcomes calls would all return
// empty.
//
// The equivalence suite pins the replay against the tests' span-less slot
// loop, bit-identical at any worker count; runState.spanSlots lets it prove
// each scenario engaged the path or fully stood down.

// spanEnd reports how far nextSlot may fast-forward from slot t: it returns
// the first slot the replay must stop before (exclusive), or t itself when
// no fast-forward is possible. A span is only worth entering when it covers
// at least two slots; a single quiet slot runs through runSlot.
func (rs *runState) spanEnd(t int) int {
	// Every check is a field or a counter, so none scans the fleet.
	if rs.cfg.RecordTimeline || rs.inj != nil ||
		rs.shortActive != 0 || rs.longActive != 0 || len(rs.queue) != 0 {
		return t
	}
	// The next refresh slot is the first multiple of window ≥ t.
	end := min(rs.horizon, (t+rs.window-1)/rs.window*rs.window)
	if rs.nextArrival < len(rs.runtimes) {
		end = min(end, rs.runtimes[rs.nextArrival].Arrival)
	}
	if rs.nextLong < len(rs.longRuntimes) {
		end = min(end, rs.longRuntimes[rs.nextLong].Arrival)
	}
	if end <= t+1 {
		return t
	}
	return end
}

// fastForwardSpan replays the quiescent slots [t0, end) in one pass. Every
// observable effect of the normal per-slot path is reproduced bit-exactly;
// see the file comment for the argument.
func (rs *runState) fastForwardSpan(t0, end int) {
	rs.spanSlots += end - t0
	tab := rs.tables
	// The cluster-allocation side of executeSlot folds every VM's ledgers
	// in ascending VM order. Nothing writes them across the span, so one
	// fold yields every slot's bits; the trailing Add of the (zero)
	// opportunistic share replays executeSlot's
	// slotClusterAlloc.Add(slotOppAlloc).
	var clusterAlloc resource.Vector
	for v := range rs.vms {
		st := &rs.vms[v]
		clusterAlloc = clusterAlloc.Add(st.reserved).Add(st.Fresh).Add(st.longReserved)
	}
	var zero resource.Vector
	clusterAlloc = clusterAlloc.Add(zero)

	// Telemetry rows for the span, aliased straight out of the resident
	// tables (read-only; observe would alias the same rows, having nothing
	// to patch).
	rows := rs.spanRows[:0]
	for t := t0; t < end; t++ {
		rows = append(rows, tab.UnusedRow(t%tab.Period))
	}
	rs.spanRows = rows

	// Predictor feeds: the scheduler's ObserveSpan replays the identical
	// per-VM appends.
	rs.sched.ObserveSpan(rows, rs.downMask)
	if rs.checkSlot != nil {
		for t := t0; t < end; t++ {
			rs.checkSlot(t, tab.DemandRow(t%tab.Period), rows[t-t0])
		}
	}

	// Collector folds, one slot at a time in slot order (repeated
	// additions, never a fused multiply): the short-job collector sees
	// the zero sums an empty slot produces, the cluster collector the
	// constant allocation fold and the phase's precomputed demand-row
	// fold.
	for t := t0; t < end; t++ {
		rs.collector.Observe(zero, zero)
		rs.clusterCollector.Observe(clusterAlloc, tab.DemandRowSum(t%tab.Period))
	}
}
