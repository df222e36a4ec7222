package sim

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// pendingRetry is an evicted job waiting out its backoff before re-entering
// the arrival queue.
type pendingRetry struct {
	rt *job.Runtime
	at int
}

// runState carries one run's mutable state through the per-slot phases.
// The event loop (events.go) and the tests' reference slot loop drive
// exactly these phase methods, in the same order at every simulated time,
// so their results are bit-identical by construction (pinned by the
// core-equivalence tests).
type runState struct {
	cfg     Config
	cl      *cluster.Cluster
	sched   scheduler.Scheduler
	clk     Clock
	inj     *faults.Injector
	res     *Result
	horizon int
	window  int
	claimed int // worker-budget slots to hand back in release

	vms          []vmState
	runtimes     []*job.Runtime
	longRuntimes []*job.Runtime
	nextArrival  int
	nextLong     int
	retries      []pendingRetry
	queue        []*job.Runtime
	maxVMCap     resource.Vector

	collector        metrics.UtilizationCollector
	clusterCollector metrics.UtilizationCollector
	// predTally streams Fig. 6's count: every CPU prediction error that
	// matures after the warmup, and how many of them fall outside [0, ε·cap).
	predTally metrics.PredictionTally

	// Per-slot scratch, hoisted so the hot path does not reallocate.
	// unused/residentUse are copy-on-write: on table slots with nothing to
	// patch they alias the snapshot's resident-table rows directly (strictly
	// read-only — see the aliasing contract on workload.ResidentTables),
	// and any path that must write per-VM entries first re-points them at
	// the run-owned backing buffers below. headVol is placeLongArrivals'
	// per-event volume column (mixed-workload runs only).
	surge            []float64
	unused           []resource.Vector
	residentUse      []resource.Vector
	unusedOwned      []resource.Vector
	residentUseOwned []resource.Vector
	downMask         []bool
	headVol          []float64
	views            []scheduler.VMView
	spanRows         [][]resource.Vector
	// pendingScratch is placeQueued's reused spec-offer buffer. byID maps
	// every short job's ID to its runtime, built once per run (IDs are
	// unique: newRunState rejects duplicate explicit IDs).
	pendingScratch []*job.Job
	byID           map[job.ID]*job.Runtime

	// Activity-proportional state (DESIGN.md §5f). tables holds the
	// snapshot's precomputed periodic resident vectors (nil for a
	// non-periodic population: telemetry recomputes every slot and no span
	// forms). downCount/downMask (written by setDown alone) and longActive
	// are maintained incrementally at their transition points
	// (advanceFaults, long placement/finish) so no phase rescans the fleet
	// to learn them.
	tables     *workload.ResidentTables
	downCount  int
	longActive int
	// shortActive counts running short jobs fleet-wide: incremented at
	// placement, decremented at finish (executeVM) and on eviction
	// (advanceFaults). The span fast-forward's quiescence check reads it
	// instead of scanning VMs.
	shortActive int

	// Event-loop state.
	events       eventQueue
	placeArmedAt int
	pathCounters
}

// pathCounters records, per run, which path each slot took, so a test can
// prove the one it means to pin actually ran.
type pathCounters struct {
	spanSlots       int // slots fastForwardSpan replayed
	slotsAliased    int // observe served the table rows untouched
	slotsPatched    int // observe copied the rows and patched vmsPatched entries
	slotsRecomputed int // observe recomputed every VM (tables == nil)
	vmsPatched      int
}

// initScratch sizes the per-slot buffers once.
func (rs *runState) initScratch() {
	n := len(rs.vms)
	rs.unused = make([]resource.Vector, n)
	rs.residentUse = make([]resource.Vector, n)
	rs.unusedOwned = rs.unused
	rs.residentUseOwned = rs.residentUse
	rs.downMask = make([]bool, n)
	if len(rs.longRuntimes) > 0 {
		rs.headVol = make([]float64, n)
	}
	rs.views = make([]scheduler.VMView, n)
	rs.placeArmedAt = -1
	rs.byID = make(map[job.ID]*job.Runtime, len(rs.runtimes))
	for _, rt := range rs.runtimes {
		rs.byID[rt.Spec.ID] = rt
	}
}

// advanceFaults is phase 0: complete repairs, crash VMs/PMs and evict their
// jobs into the retry queue, and record the slot's surge factors and
// control-plane stalls. Only called when an injector exists.
func (rs *runState) advanceFaults(t int) {
	res := rs.res
	ev := rs.inj.Advance(t)
	res.Recovery.PMCrashes += ev.PMCrashes
	for _, v := range ev.Recovered {
		rs.setDown(v, false)
		res.Recovery.VMRecoveries++
	}
	for _, v := range ev.Crashed {
		st := &rs.vms[v]
		rs.setDown(v, true)
		res.Recovery.VMCrashes++
		for _, rt := range st.running {
			rt.Evict(t)
			res.Recovery.Evictions++
			if rt.Retries >= rs.inj.Config().MaxRetries {
				// Retry budget exhausted: the job is abandoned and will
				// be accounted as an unfinished, failure-attributed SLO
				// violation.
				res.Recovery.RetriesExhausted++
				continue
			}
			rt.Retries++
			res.Recovery.Retries++
			at := t + rs.inj.Config().Backoff(rt.Retries)
			rs.retries = append(rs.retries, pendingRetry{rt, at})
			rs.events.Push(at, evRetry, int(rt.Spec.ID))
		}
		// Long-lived jobs die with the VM and are not retried; their
		// guaranteed reservations return to the pool.
		res.LongFailed += len(st.longRunning)
		rs.longActive -= len(st.longRunning)
		rs.shortActive -= len(st.running)
		st.running = nil
		st.hot = nil
		st.longRunning = nil
		st.freshInUse = resource.Vector{}
		st.oppInUse = resource.Vector{}
		st.longReserved = resource.Vector{}
	}
	if ev.DelayMicros > 0 {
		res.Overhead.AddComm(ev.DelayMicros)
		res.Recovery.Delays++
		res.Recovery.InjectedDelayMicros += ev.DelayMicros
	}
	rs.surge = ev.Surge
}

// setDown records VM v's up/down transition: the mask and the incremental
// up-VM count the refresh window charges from. Every downMask transition
// must go through here so downCount never drifts from the mask.
func (rs *runState) setDown(v int, down bool) {
	if rs.downMask[v] != down {
		if down {
			rs.downCount++
		} else {
			rs.downCount--
		}
	}
	rs.downMask[v] = down
}

// placeLongArrivals is phase 1: place arriving long-lived jobs with the
// cooperating reservation method, largest guaranteed headroom first (lowest
// index on ties). The slot's arrivals share one dense column of headroom
// volumes, filled once per call (-1 for a down VM): each arrival scans the
// column, goes back to the ledger for the fit check only on a candidate
// that would improve the best volume, and refreshes the chosen VM's entry
// so the next arrival sees the reservation.
func (rs *runState) placeLongArrivals(t int) {
	if rs.nextLong >= len(rs.longRuntimes) || rs.longRuntimes[rs.nextLong].Arrival > t {
		return
	}
	for v := range rs.vms {
		rs.setHeadVol(v)
	}
	for rs.nextLong < len(rs.longRuntimes) && rs.longRuntimes[rs.nextLong].Arrival <= t {
		rt := rs.longRuntimes[rs.nextLong]
		rs.nextLong++
		bestVM, bestVol := -1, -1.0
		need := rt.Spec.Request
		for v, vol := range rs.headVol {
			if vol > bestVol && need.FitsIn(rs.vms[v].freshHeadroom()) {
				bestVM, bestVol = v, vol
			}
		}
		if bestVM < 0 {
			rs.res.LongUnplaced++
			continue
		}
		st := &rs.vms[bestVM]
		st.longReserved = st.longReserved.Add(need)
		rs.setHeadVol(bestVM)
		rt.VM = bestVM
		rt.Started = t
		rt.Allocated = need
		st.longRunning = append(st.longRunning, rt)
		rs.longActive++
		rs.res.LongPlaced++
	}
}

// setHeadVol refreshes VM v's entry of the long-placement volume column.
func (rs *runState) setHeadVol(v int) {
	rs.headVol[v] = -1
	if !rs.downMask[v] {
		rs.headVol[v] = rs.vms[v].freshHeadroom().Volume(rs.maxVMCap)
	}
}

// observe is phase 2: compute the actual unused resources (prediction
// target) per VM — the residents' slack, shrunk by any demand surge, plus
// the running long jobs' slack — and feed them to the predictor fleet in
// one batched call. Failed VMs report no telemetry and offer no pool.
//
// Resident demand is periodic (job.DemandAt wraps t % len(Usage)), so with
// tables the slot starts from the two precomputed rows for t % Period —
// every entry produced by the identical DemandAt/UnusedAt calls, so
// bit-exact — and patches only the VMs that differ from them: down (zero),
// surged (the same Scale/Min/Sub/Clamp, on the row's demand) or hosting
// long jobs (their slack added in longRunning order). Copy-on-write: the
// scratch slices alias the read-only rows (see the aliasing contract on
// workload.ResidentTables) and are re-pointed at the run-owned buffers when
// the first VM needs a patch; every downstream consumer — predictor feeds,
// the execute pass, timeline snapshots — only reads them. Without
// tables (a non-periodic population) every VM is recomputed in one serial
// pass. Which branch runs depends on the population alone, never on run
// state.
func (rs *runState) observe(t int) {
	surge := rs.surge
	if tab := rs.tables; tab != nil {
		demand, unused := tab.DemandRow(t%tab.Period), tab.UnusedRow(t%tab.Period)
		rs.residentUse, rs.unused = demand, unused
		patched, hits := 0, 0
		if rs.downCount > 0 || rs.longActive > 0 || surge != nil {
			for v, down := range rs.downMask {
				surged := surge != nil && surge[v] > 1
				if !down && !surged && (rs.longActive == 0 || len(rs.vms[v].longRunning) == 0) {
					continue
				}
				if patched == 0 {
					rs.residentUse, rs.unused = rs.residentUseOwned, rs.unusedOwned
					copy(rs.residentUse, demand)
					copy(rs.unused, unused)
				}
				patched++
				if down {
					rs.residentUse[v], rs.unused[v] = resource.Vector{}, resource.Vector{}
					continue
				}
				st := &rs.vms[v]
				u := unused[v]
				if surged {
					rs.residentUse[v] = demand[v].Scale(surge[v]).Min(st.reserved)
					u = st.reserved.Sub(rs.residentUse[v]).ClampNonNegative()
					hits++
				}
				for _, rt := range st.longRunning {
					u = u.Add(rt.Spec.Request.Sub(rt.Spec.DemandAt(rt.Slots)).ClampNonNegative())
				}
				rs.unused[v] = u
			}
		}
		if patched == 0 {
			rs.slotsAliased++
		} else {
			rs.slotsPatched++
			rs.vmsPatched += patched
			rs.res.Recovery.SurgeSlots += hits
		}
		rs.sched.ObserveAll(rs.unused, rs.downMask)
		return
	}
	rs.slotsRecomputed++
	rs.residentUse, rs.unused = rs.residentUseOwned, rs.unusedOwned
	for v := range rs.vms {
		if rs.downMask[v] {
			rs.unused[v] = resource.Vector{}
			rs.residentUse[v] = resource.Vector{}
			continue
		}
		st := &rs.vms[v]
		rs.residentUse[v] = st.resident.DemandAt(t)
		u := st.resident.UnusedAt(t)
		if surge != nil && surge[v] > 1 {
			rs.residentUse[v] = rs.residentUse[v].Scale(surge[v]).Min(st.reserved)
			u = st.reserved.Sub(rs.residentUse[v]).ClampNonNegative()
			rs.res.Recovery.SurgeSlots++
		}
		for _, rt := range st.longRunning {
			u = u.Add(rt.Spec.Request.Sub(rt.Spec.DemandAt(rt.Slots)).ClampNonNegative())
		}
		rs.unused[v] = u
	}
	rs.sched.ObserveAll(rs.unused, rs.downMask)
}

// refreshWindow is phase 3: refresh forecasts (timed — this is the
// prediction part of the allocation path), let adjusting schemes re-size
// running jobs' allocations, and charge the status-RPC fan-out.
func (rs *runState) refreshWindow(t int) {
	start := rs.clk.Now()
	rs.sched.Refresh()
	if adj, ok := rs.sched.(scheduler.Adjuster); ok {
		applyAdjustments(rs.vms, rs.downMask, adj)
	}
	rs.res.Overhead.AddCompute(rs.clk.Now() - start)
	// One status RPC per VM to collect utilization reports; in a real
	// deployment this communication dominates the control loop, with the
	// predictor's compute as the increment on top (the paper: CORP's DNN
	// "increases the latency a little"). A crashed VM answers no status
	// probe, so it adds no round-trip to the control-plane total (see
	// DESIGN.md §5f on skip-vs-timeout). The up-VM count comes from the
	// incrementally maintained down counter instead of an O(VMs) mask
	// walk; AddCommRepeat performs the same repeated additions the old
	// loop did (a single fused n×latency add would not be bit-identical
	// once fault delays sit in the accumulator), and the adds are
	// identical so dropping the per-VM order cannot change the sum.
	rs.res.Overhead.AddCommRepeat(len(rs.vms)-rs.downCount, rs.cl.CommLatencyMicros)
}

// applyAdjustments re-sizes every running short job's allocation to the
// scheme's corrected amount. Opportunistic jobs swap their allocation
// freely (risk lands at execute time when the pool runs short); fresh jobs
// may only grow into real guaranteed headroom.
func applyAdjustments(vms []vmState, down []bool, adj scheduler.Adjuster) {
	for v := range vms {
		if down[v] {
			continue
		}
		st := &vms[v]
		for i, rt := range st.running {
			// The hot entry carries the live slot counter and shadows the
			// allocation; the runtime's Slots is only synced at finish, so
			// the demand lookup must go through the hot index.
			h := &st.hot[i]
			newAlloc, changed := adj.AdjustAlloc(rt.Spec, h.d)
			if !changed {
				continue
			}
			if rt.Entity == 1 {
				st.oppInUse = st.oppInUse.Sub(rt.Allocated).ClampNonNegative().Add(newAlloc)
			} else {
				// Fresh increases are bounded by real headroom: capacity
				// minus the resident reservation, the long jobs'
				// guaranteed reservations, and fresh grants already out.
				headroom := st.freshHeadroom()
				grow := newAlloc.Sub(rt.Allocated).ClampNonNegative().Min(headroom)
				newAlloc = rt.Allocated.Min(newAlloc).Add(grow)
				st.freshInUse = st.freshInUse.Sub(rt.Allocated).ClampNonNegative().Add(newAlloc)
			}
			rt.Allocated = newAlloc
			h.alloc = newAlloc
		}
	}
}

// admitArrivals is phase 4a: move due arrivals into the queue. It reports
// whether any job was admitted (the event core arms a placement pass on
// admission).
func (rs *runState) admitArrivals(t int) bool {
	admitted := false
	for rs.nextArrival < len(rs.runtimes) && rs.runtimes[rs.nextArrival].Arrival <= t {
		rs.queue = append(rs.queue, rs.runtimes[rs.nextArrival])
		rs.nextArrival++
		admitted = true
	}
	return admitted
}

// admitRetries is phase 4b: move evicted jobs whose retry backoff has
// elapsed into the queue, preserving eviction order.
func (rs *runState) admitRetries(t int) bool {
	if len(rs.retries) == 0 {
		return false
	}
	admitted := false
	kept := rs.retries[:0]
	for _, pr := range rs.retries {
		if pr.at <= t {
			rs.queue = append(rs.queue, pr.rt)
			admitted = true
		} else {
			kept = append(kept, pr)
		}
	}
	rs.retries = kept
	return admitted
}

// placeQueued is phase 5: offer every queued job to the scheduler. Failed
// VMs drop out of the scheduler's view and re-enter when they recover.
func (rs *runState) placeQueued(t int) error {
	res := rs.res
	for v := range rs.vms {
		if rs.downMask[v] {
			rs.views[v] = scheduler.VMView{Down: true}
			continue
		}
		st := &rs.vms[v]
		rs.views[v] = scheduler.VMView{
			FreshAvailable: st.freshHeadroom(),
			OppInUse:       st.oppInUse,
		}
	}
	if cap(rs.pendingScratch) < len(rs.queue) {
		rs.pendingScratch = make([]*job.Job, len(rs.queue))
	}
	pending := rs.pendingScratch[:len(rs.queue)]
	for i, rt := range rs.queue {
		pending[i] = rt.Spec
	}
	start := rs.clk.Now()
	placements := rs.sched.Place(pending, rs.views)
	res.Overhead.AddCompute(rs.clk.Now() - start)
	anyPlaced := false
	for _, p := range placements {
		res.Overhead.AddComm(rs.cl.CommLatencyMicros)
		if len(p.Allocs) != len(p.Jobs) {
			return fmt.Errorf("sim: placement has %d allocs for %d jobs", len(p.Allocs), len(p.Jobs))
		}
		for idx, spec := range p.Jobs {
			rt := rs.byID[spec.ID]
			if rt == nil {
				return fmt.Errorf("sim: scheduler placed unknown job %d", spec.ID)
			}
			if rt.VM >= 0 {
				return fmt.Errorf("sim: scheduler placed job %d twice", spec.ID)
			}
			rt.VM = p.VM
			rt.Started = t
			rt.Allocated = p.Allocs[idx]
			st := &rs.vms[p.VM]
			if p.Opportunistic {
				st.oppInUse = st.oppInUse.Add(rt.Allocated)
				res.PlacedOpportunistic++
			} else {
				st.freshInUse = st.freshInUse.Add(rt.Allocated)
				res.PlacedFresh++
			}
			rt.Entity = boolToInt(p.Opportunistic)
			st.running = append(st.running, rt)
			st.hot = append(st.hot, hotShort{
				d:        rt.Spec.Usage[0],
				alloc:    rt.Allocated,
				duration: float64(rt.Spec.Duration),
				usage:    rt.Spec.Usage,
				opp:      p.Opportunistic,
			})
			rs.shortActive++
			anyPlaced = true
			if rt.EvictedAt >= 0 {
				// An evicted job found a new home: record the
				// eviction-to-replacement gap.
				res.Recovery.Replaced++
				res.Recovery.ReplaceSlots += t - rt.EvictedAt
				rt.EvictedAt = -1
			}
		}
	}
	if anyPlaced {
		// A placed job has VM ≥ 0 (set above); everything queued is either
		// unplaced or evicted, both VM = -1 — so the runtime itself is the
		// placed set, no side table needed.
		kept := rs.queue[:0]
		for _, rt := range rs.queue {
			if rt.VM < 0 {
				kept = append(kept, rt)
			}
		}
		rs.queue = kept
	}
	return nil
}

// executeSlot is phases 6–7: run one slot on every up VM, fold the slot's
// ledger sums into the collectors, snapshot the timeline, and drain matured
// prediction errors.
//
// One serial pass visits the up VMs in index order, and each executeVM folds
// its contributions into the slot sums as it produces them. Floating-point
// addition is not associative, so that one fixed order is what makes the
// sums reproducible.
func (rs *runState) executeSlot(t int) {
	var acc slotAccum
	for v, down := range rs.downMask {
		if !down {
			rs.executeVM(t, v, &acc)
		}
	}
	slotAllocated := acc.allocated
	slotDemand := acc.demand
	slotOppAlloc := acc.oppAlloc
	slotClusterAlloc := acc.clusterAlloc
	slotClusterDemand := acc.clusterDemand
	rs.collector.Observe(slotAllocated, slotDemand)
	// Cluster-wide allocation = Σ over VMs of (resident reservation +
	// long-job reservations + fresh grants) + the opportunistic grants.
	// Fresh short-job allocations already sit in the per-VM freshInUse
	// ledger summed above, so only the opportunistic share — which lives
	// outside the guaranteed ledgers — is added on top; adding all of
	// slotAllocated would count every fresh allocation twice.
	rs.clusterCollector.Observe(slotClusterAlloc.Add(slotOppAlloc), slotClusterDemand)
	if rs.cfg.RecordTimeline {
		rs.res.Timeline = append(rs.res.Timeline, snapshotTimeline(
			t, rs.cfg.Weights, slotAllocated, slotDemand,
			slotClusterAlloc.Add(slotOppAlloc), slotClusterDemand,
			rs.unused, rs.vms, len(rs.queue)))
	}

	// Drain matured prediction errors; only steady-state CPU samples (past
	// the warmup) count toward the Fig. 6 metric, and only as a tally.
	drained := rs.sched.DrainOutcomes()
	if t >= rs.cfg.Warmup {
		for _, o := range drained {
			if o.Kind == resource.CPU {
				rs.predTally.Add(o.Error)
			}
		}
	}
}

// slotAccum carries one slot's running collector sums. Each field is an
// independent floating-point addition chain, added to in VM index order.
type slotAccum struct {
	allocated     resource.Vector // short-job allocations
	demand        resource.Vector // short-job served demand
	oppAlloc      resource.Vector // opportunistic share of allocated
	clusterAlloc  resource.Vector
	clusterDemand resource.Vector
}

// hotShort is one running short job's execution state, packed into the
// VM's dense hot array (vmState.hot, index-parallel with vmState.running).
// At the scale profile executeVM visits millions of job-slots; reading
// them through *Runtime costs three dependent cache misses per job-slot
// (the runtime, its spec, the usage element), while this layout streams one
// sequential array. uidx is slots mod len(usage), maintained by a
// compare-wrap increment so the per-slot demand lookup (job.DemandAt's
// wrap-around) needs no integer division. progress/slots shadow the
// Runtime fields and are written back on finish and at finalize; alloc
// shadows Runtime.Allocated and is updated in lockstep by adjustments.
//
// d carries usage[uidx], the current slot's demand: every consumer of the
// per-slot demand (the wantOpp fold, the advance pass, adjustments) reads
// it from the sequential hot array. The one gather into the job's usage
// series runs after the advance pass, in a loop of its own over hot: left
// at the tail of the ~70-µop advance body its misses barely overlapped
// and it took about half of executeVM's time; alone in a tight loop the
// loads issue back to back.
//
// usage aliases Spec.Usage; the trace generator packs every series into
// one contiguous arena (see trace.GenerateShortJobs), so these gathers
// land on a few shared hot pages rather than one generator-allocated heap
// page per job.
type hotShort struct {
	d        resource.Vector // usage[uidx], the current slot's demand
	alloc    resource.Vector
	progress float64
	duration float64           // float64(Spec.Duration), the finish threshold
	usage    []resource.Vector // aliases Spec.Usage
	slots    int32
	uidx     int32
	opp      bool
}

// executeVM runs slot t on up VM v and folds its contributions into acc,
// in this order: the VM's ledgers (before any finish releases them) and
// its resident demand, each long job's grant, then each short job's
// allocation and served demand in running-list order. An idle VM stops
// after the first two; they are its live vmState ledgers, which only
// placements, adjustments, finishes and crashes write.
func (rs *runState) executeVM(t, v int, acc *slotAccum) {
	st := &rs.vms[v]
	acc.clusterAlloc = acc.clusterAlloc.Add(st.reserved).Add(st.freshInUse).Add(st.longReserved)
	acc.clusterDemand = acc.clusterDemand.Add(rs.residentUse[v])
	if len(st.longRunning) == 0 && len(st.hot) == 0 {
		return
	}

	// Long-lived jobs run with guaranteed allocations.
	keptLong := st.longRunning[:0]
	for _, rt := range st.longRunning {
		granted := rt.Spec.DemandAt(rt.Slots).Min(rt.Allocated)
		acc.clusterDemand = acc.clusterDemand.Add(granted)
		rt.Advance(granted)
		if rt.Progress >= float64(rt.Spec.Duration)-1e-9 {
			rt.Finished = t
			st.longReserved = st.longReserved.Sub(rt.Allocated).ClampNonNegative()
			rs.res.LongFinished++
			rs.longActive--
		} else {
			keptLong = append(keptLong, rt)
		}
	}
	st.longRunning = keptLong

	// Opportunistic pool: what the residents truly left unused. The first
	// pass folds the opportunistic jobs' want = min(demand, allocated) in
	// running-list order, exactly as before; the demand lookups hit the
	// dense hot array, not the runtimes.
	pool := rs.unused[v]
	hot := st.hot
	var wantOpp resource.Vector
	for i := range hot {
		if h := &hot[i]; h.opp {
			wantOpp = wantOpp.Add(h.d.Min(h.alloc))
		}
	}
	// Per-kind scale factor when the pool is oversubscribed.
	var scale resource.Vector
	for k := range scale {
		if wantOpp[k] <= pool[k] || wantOpp[k] == 0 {
			scale[k] = 1
		} else {
			scale[k] = pool[k] / wantOpp[k]
		}
	}
	// Advance in place (no append/struct-copy per job-slot); the running/hot
	// arrays are only compacted afterwards, on the rare slots where a job
	// actually finished.
	finished := 0
	for i := range hot {
		h := &hot[i]
		d := h.d
		granted := d.Min(h.alloc) // the want the first pass folded
		if h.opp {
			granted = granted.Mul(scale)
		}
		acc.allocated = acc.allocated.Add(h.alloc)
		if h.opp {
			acc.oppAlloc = acc.oppAlloc.Add(h.alloc)
		}
		acc.demand = acc.demand.Add(granted)
		acc.clusterDemand = acc.clusterDemand.Add(granted)
		h.progress += job.ProgressRate(granted, d)
		h.slots++
		if h.uidx++; int(h.uidx) == len(h.usage) {
			h.uidx = 0
		}
		if h.progress >= h.duration-1e-9 {
			rt := st.running[i]
			rt.Finished = t
			rt.Progress = h.progress
			rt.Slots = int(h.slots)
			if h.opp {
				st.oppInUse = st.oppInUse.Sub(h.alloc).ClampNonNegative()
			} else {
				st.freshInUse = st.freshInUse.Sub(h.alloc).ClampNonNegative()
			}
			finished++
		}
	}
	// Gather the next slot's demands in a pass of their own: nothing
	// between here and the next slot's wantOpp fold reads d, and this loop
	// body is just the gather, so its cache misses overlap.
	for i := range hot {
		h := &hot[i]
		h.d = h.usage[h.uidx]
	}
	if finished > 0 {
		rs.shortActive -= finished
		// Order-preserving compaction of both parallel arrays. The finish
		// predicate is stable: progress only grew past the threshold for
		// the jobs marked above.
		kept := st.running[:0]
		keptHot := hot[:0]
		for i := range hot {
			if h := &hot[i]; h.progress < h.duration-1e-9 {
				kept = append(kept, st.running[i])
				keptHot = append(keptHot, *h)
			}
		}
		st.running = kept
		st.hot = keptHot
	}
}

// finalize computes the run's aggregate metrics from the collectors and
// per-job runtimes.
func (rs *runState) finalize() *Result {
	cfg, res := rs.cfg, rs.res
	// Jobs still running at the horizon carry their live progress in the
	// VMs' hot arrays (the Runtime fields are only synced at finish); write
	// it back before the per-runtime accounting below reads it.
	for v := range rs.vms {
		st := &rs.vms[v]
		for i, rt := range st.running {
			rt.Progress = st.hot[i].progress
			rt.Slots = int(st.hot[i].slots)
		}
	}
	for _, k := range resource.Kinds() {
		res.Utilization[k] = rs.collector.Utilization(k)
		res.ClusterUtilization[k] = rs.clusterCollector.Utilization(k)
	}
	res.Overall = rs.collector.Overall(cfg.Weights)
	res.Wastage = 1 - res.Overall
	res.ClusterOverall = rs.clusterCollector.Overall(cfg.Weights)

	res.PredictionSamples = rs.predTally.Samples
	res.PredictionErrorRate = rs.predTally.Rate()

	var respSum, respN float64
	responses := make([]int, 0, len(rs.runtimes))
	serviceRates := make([]float64, 0, len(rs.runtimes))
	// Attribute each violated or unfinished job to its damage mechanism:
	// jobs evicted by a failure are failure damage, the rest starved on
	// opportunistic pools (the paper's fault-free mechanism). Only fault
	// runs attribute, so fault-free results stay bit-for-bit unchanged.
	attribute := func(rt *job.Runtime) {
		if rs.inj == nil {
			return
		}
		if rt.Evictions > 0 {
			res.Recovery.ViolationsFailure++
		} else {
			res.Recovery.ViolationsStarvation++
		}
	}
	for _, rt := range rs.runtimes {
		if rt.Done() {
			res.SLO.Finished++
			if rt.SLOViolated() {
				res.SLO.Violated++
				attribute(rt)
			}
			respSum += float64(rt.ResponseTime())
			respN++
			responses = append(responses, rt.ResponseTime())
		} else {
			res.SLO.Unfinished++
			attribute(rt)
			if rt.VM < 0 && rt.Evictions == 0 {
				res.NeverPlaced++
			}
		}
		if rt.Slots > 0 {
			serviceRates = append(serviceRates, rt.Progress/float64(rt.Slots))
		}
	}
	res.SLORate = res.SLO.ViolationRate()
	if respN > 0 {
		res.MeanResponseSlots = respSum / respN
	}
	if p, ok := metrics.PercentileInt(responses, 50); ok {
		res.ResponseP50 = p
	}
	if p, ok := metrics.PercentileInt(responses, 95); ok {
		res.ResponseP95 = p
	}
	res.Fairness = metrics.JainFairness(serviceRates)
	if te, ok := rs.sched.(interface{ TrainErrors() int }); ok {
		res.DNNTrainErrors = te.TrainErrors()
	}
	return res
}
