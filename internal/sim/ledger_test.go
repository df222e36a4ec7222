package sim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/trace"
)

// newRuntime returns a fresh heap runtime for tests that build run state by
// hand (a run carves its runtimes from one slab).
func newRuntime(spec *job.Job, arrival int) *job.Runtime {
	rt := job.RuntimeAt(spec, arrival)
	return &rt
}

// TestRunAllocationsDoNotGrowPerJob pins the run-state slabs: every
// runtime of a run comes from one slab and Fig. 6 is a tally, so on a fixed
// 20-VM RCCR fleet quadrupling the jobs adds fewer than one allocation per
// ten jobs (what remains grows with the queue and the per-VM concurrency,
// not with the job count).
func TestRunAllocationsDoNotGrowPerJob(t *testing.T) {
	allocs := func(jobs int) float64 {
		cfg := Config{
			NumPMs: 5, NumVMs: 20, NumJobs: jobs, Seed: 3,
			Scheduler: scheduler.Config{Scheme: scheduler.RCCR, Seed: 3},
			Clock:     &VirtualClock{StepMicros: 50},
			Workers:   1,
		}
		snap, err := PrepareWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Prepared = snap
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(400), allocs(1600)
	t.Logf("Run allocates %.0f times at 400 jobs, %.0f at 1600", small, large)
	if large-small >= (1600-400)/10 {
		t.Errorf("Run allocates %.0f times at 400 jobs and %.0f at 1600, want fewer than %d more", small, large, (1600-400)/10)
	}
}

// TestClusterUtilizationCountsFreshOnce is the regression pin for the
// cluster-utilization double-count: the execute pass's per-VM ledger sum
// already includes freshInUse, so only the opportunistic share of short
// allocations may be added on top. The intended identity, checked against
// the collector's exported accumulators:
//
//	cluster allocated = Σ(reserved + longReserved + freshInUse) + Σ opp allocs
//
// The buggy version added all short allocations, counting every fresh
// grant twice in the cluster-utilization denominator.
func TestClusterUtilizationCountsFreshOnce(t *testing.T) {
	one := func(x float64) resource.Vector { return resource.Vector{x, x, x} }
	spec := func(id int) *job.Job {
		return &job.Job{
			ID: job.ID(id), Duration: 10,
			Usage:   []resource.Vector{one(1)},
			Request: one(1),
		}
	}

	// VM 0 hosts a fresh short job (entity 0) from guaranteed headroom;
	// VM 1 hosts an opportunistic one (entity 1) from predicted-unused.
	fresh := newRuntime(spec(1), 0)
	fresh.Allocated = one(3)
	opp := newRuntime(spec(2), 0)
	opp.Allocated = one(1)
	opp.Entity = 1
	vms := []vmState{
		{capacity: one(8), reserved: one(2), freshInUse: one(3), running: []*job.Runtime{fresh}},
		{capacity: one(8), reserved: one(2), oppInUse: one(1), running: []*job.Runtime{opp}},
	}
	for v := range vms {
		vms[v].rebuildHot()
	}

	cl, err := cluster.New(cluster.Config{NumPMs: 1, NumVMs: 2})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduler.New(scheduler.Config{Scheme: scheduler.RCCR, Seed: 1, Workers: 1}, cl)
	if err != nil {
		t.Fatal(err)
	}
	rs := &runState{cfg: Config{Warmup: 1}, sched: sched, res: &Result{}, vms: vms}
	rs.initScratch()
	// Ample opportunistic pool so the grant scale factor stays 1.
	rs.unused[0], rs.unused[1] = one(5), one(5)
	rs.residentUse[0], rs.residentUse[1] = one(1), one(1)

	rs.executeSlot(0)

	// Short-job side: both allocations, both grants.
	if want := one(4); rs.collector.Allocated != want {
		t.Errorf("short allocated = %v, want %v", rs.collector.Allocated, want)
	}
	if want := one(2); rs.collector.Demand != want {
		t.Errorf("short demand = %v, want %v", rs.collector.Demand, want)
	}
	// Cluster side: ledgers (2+3) + (2) plus the opportunistic alloc 1 =
	// 8. The double-count bug yielded 11 (= 7 + all 4 short allocations).
	if want := one(8); rs.clusterCollector.Allocated != want {
		t.Errorf("cluster allocated = %v, want %v (fresh counted twice?)", rs.clusterCollector.Allocated, want)
	}
	// Cluster demand: residents (1+1) + granted short demand (1+1).
	if want := one(4); rs.clusterCollector.Demand != want {
		t.Errorf("cluster demand = %v, want %v", rs.clusterCollector.Demand, want)
	}
}

// fixedPlacer is the no-op scheduler with a canned placement list, so a test
// can place jobs through the production placeQueued phase.
type fixedPlacer struct {
	nullScheduler
	placements []scheduler.Placement
}

func (f fixedPlacer) Place([]*job.Job, []scheduler.VMView) []scheduler.Placement {
	return f.placements
}

// TestExecuteSlotDoesNotAllocate is the execute phase's allocation gate: on
// busy slots — two opportunistic jobs and a fresh one sharing VM 0's pool,
// a long job, nothing finishing — executeSlot advances every job and folds
// the slot sums without touching the heap. The jobs enter through the
// production placement phases; the scheduler is the no-op one, since all
// execute asks of it is DrainOutcomes.
func TestExecuteSlotDoesNotAllocate(t *testing.T) {
	req := resource.Vector{0.4, 1.6, 4}
	usage := []resource.Vector{{0.2, 0.8, 2}, {0.5, 1.2, 3}, {0.3, 0.4, 1}}
	jobs := make([]*job.Job, 3)
	for i := range jobs {
		jobs[i] = &job.Job{ID: job.ID(i), Duration: 1000, SLOFactor: 10, Request: req, Usage: usage}
	}
	rs, err := newRunState(Config{
		NumPMs: 6, NumVMs: 24, Seed: 7,
		Scheduler:    scheduler.Config{Scheme: scheduler.RCCR, Seed: 7},
		Workers:      1,
		ExplicitJobs: jobs,
		LongJobs:     1,
		Long:         trace.LongJobConfig{MinDuration: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.release()
	rs.sched = fixedPlacer{placements: []scheduler.Placement{
		{Jobs: jobs[:2], Allocs: []resource.Vector{req, req}, VM: 0, Opportunistic: true},
		{Jobs: jobs[2:], Allocs: []resource.Vector{req}, VM: 0},
	}}
	rs.queue = append(rs.queue, rs.runtimes...)
	if err := rs.placeQueued(0); err != nil {
		t.Fatal(err)
	}
	rs.placeLongArrivals(rs.longRuntimes[0].Arrival)
	if rs.shortActive != 3 || rs.longActive != 1 {
		t.Fatalf("placed %d short and %d long jobs, want 3 and 1", rs.shortActive, rs.longActive)
	}
	rs.observe(0)
	slot := 0
	if n := testing.AllocsPerRun(100, func() {
		rs.executeSlot(slot)
		slot++
	}); n != 0 {
		t.Errorf("executeSlot allocates %v times per busy slot, want 0", n)
	}
	if rs.shortActive != 3 || rs.longActive != 1 || rs.collector.Slots != slot {
		t.Errorf("after %d slots: %d short and %d long jobs running, %d collector slots; want 3, 1, %d",
			slot, rs.shortActive, rs.longActive, rs.collector.Slots, slot)
	}
}

// TestRefreshWindowSkipsDownVMs is the regression pin for the status-RPC
// fan-out charging communication latency for crashed VMs: a down VM
// answers no status probe, so the refresh window must add one round-trip
// per *up* VM only (DESIGN.md §5f, skip-vs-timeout).
func TestRefreshWindowSkipsDownVMs(t *testing.T) {
	cl, err := cluster.New(cluster.Config{NumPMs: 1, NumVMs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduler.New(scheduler.Config{Scheme: scheduler.RCCR, Seed: 1, Workers: 1}, cl)
	if err != nil {
		t.Fatal(err)
	}
	vms := make([]vmState, 4)
	for i := range vms {
		vms[i] = vmState{capacity: resource.Vector{4, 16, 180}}
	}
	rs := &runState{
		cl:    cl,
		sched: sched,
		clk:   &VirtualClock{StepMicros: 50},
		res:   &Result{},
		vms:   vms,
	}
	rs.initScratch()
	rs.setDown(1, true)
	rs.setDown(3, true)

	before := rs.res.Overhead.CommMicros
	rs.refreshWindow(0)

	got := rs.res.Overhead.CommMicros - before
	if want := 2 * cl.CommLatencyMicros; got != want {
		t.Errorf("refresh comm charge = %v µs, want %v (2 up VMs × %v; down VMs must add no round-trip)",
			got, want, cl.CommLatencyMicros)
	}
}

// rebuildHot reconstructs the dense hot array from the running list. The
// simulator maintains the pair incrementally (placement appends, execute
// compacts, crashes clear); tests that assemble vmStates directly call
// this.
func (st *vmState) rebuildHot() {
	st.hot = st.hot[:0]
	for _, rt := range st.running {
		h := hotShort{
			alloc:    rt.Allocated,
			progress: rt.Progress,
			duration: float64(rt.Spec.Duration),
			usage:    rt.Spec.Usage,
			slots:    int32(rt.Slots),
			opp:      rt.Entity == 1,
		}
		if len(h.usage) > 0 {
			h.uidx = h.slots % int32(len(h.usage))
			h.d = h.usage[h.uidx]
		}
		st.hot = append(st.hot, h)
	}
}

// TestNextSlotDemandGather pins what executeVM's separate gather pass must
// leave behind: after every event of a production run, each running short
// job's hot entry carries uidx = slots mod len(usage) and d = usage[uidx],
// the demand its next slot reads. It runs the scale smoke shapes, calm and
// churned (crashes evict jobs mid-series, surges and adjustments rescale
// allocations), through the event loop one event at a time.
func TestNextSlotDemandGather(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke skipped in -short mode")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"calm", scaleSmokeConfig()},
		{"churn", withChurn(scaleSmokeConfig(), 200)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs, err := newRunState(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.release()
			rs.seedEvents()
			checked, advanced := 0, 0
			for rs.events.hasPendingEvents() && rs.events.peekNextEventTime() < rs.horizon {
				if err := rs.processNextEvent(); err != nil {
					t.Fatal(err)
				}
				for v := range rs.vms {
					st := &rs.vms[v]
					if len(st.hot) != len(st.running) {
						t.Fatalf("VM %d: %d hot entries for %d running jobs", v, len(st.hot), len(st.running))
					}
					for i := range st.hot {
						h := &st.hot[i]
						if int(h.uidx) != int(h.slots)%len(h.usage) {
							t.Fatalf("VM %d job %d: uidx %d after %d slots of a %d-slot series",
								v, st.running[i].Spec.ID, h.uidx, h.slots, len(h.usage))
						}
						if h.d != h.usage[h.uidx] {
							t.Fatalf("VM %d job %d: d = %v, usage[%d] = %v",
								v, st.running[i].Spec.ID, h.d, h.uidx, h.usage[h.uidx])
						}
						checked++
						if h.slots > 0 {
							advanced++
						}
					}
				}
			}
			if advanced == 0 {
				t.Fatalf("checked %d job states, none past its first slot: the test is vacuous", checked)
			}
		})
	}
}
