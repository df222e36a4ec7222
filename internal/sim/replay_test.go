package sim

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/scheduler"
)

// replayCounts tallies what a replay exercised, so a scenario can prove it
// is not vacuous.
type replayCounts struct {
	opp, fresh  int // grants issued, by pool
	resized     int // live grants whose allocation a refresh changed
	revoked     int // grants a crash took
	resubmitted int // evicted jobs offered again after their backoff
}

// TestControllerReplaysSimulator is the live controller's correctness
// argument: core.Controller, fed what a CORP simulation sees slot by slot,
// must issue the simulator's grants and keep its ledger bit for bit. The
// two share scheduler.Pools, the scheme and the placement code, but each
// drives them through its own loop, queue and crash handling; the replay
// pins everything that stays different. One scenario is calm; the other
// crashes VMs, so grants are revoked and evicted jobs come back after the
// simulator's retry backoff.
func TestControllerReplaysSimulator(t *testing.T) {
	base := func(seed int64) Config {
		return Config{
			NumPMs: 4, NumVMs: 16, NumJobs: 90, Seed: seed,
			Warmup: 60, ArrivalSpan: 40, Drain: 60,
			Scheduler: scheduler.Config{Scheme: scheduler.CORP, Seed: seed},
			Clock:     &VirtualClock{StepMicros: 50},
			Workers:   1,
		}
	}
	for _, sc := range []struct {
		name    string
		cfg     Config
		crashes bool
	}{
		{"calm", base(3), false},
		{"crashes", func() Config {
			cfg := base(5)
			cfg.Faults = faults.Config{Seed: 5, VMCrashProb: 0.01, MeanDowntime: 6}
			return cfg
		}(), true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			n, err := replayController(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%+v", n)
			if n.opp == 0 || n.fresh == 0 || n.resized == 0 {
				t.Errorf("replay is vacuous: %+v", n)
			}
			if sc.crashes && (n.revoked == 0 || n.resubmitted == 0) {
				t.Errorf("no grant was revoked or no evicted job came back: %+v", n)
			}
		})
	}
}

// replayController runs cfg, a CORP run, slot by slot through runSlot
// and replays every slot into a core.Controller on the same cluster, with
// the same scheduler config and pre-training history:
//
//   - VMDown/VMUp for the slot's down-mask changes, then Cancel for every
//     job a crash revoked (the simulator holds them for their backoff);
//   - Submit for the jobs the simulator admits at the slot, in its queue
//     order (arrivals, then released retries);
//   - ObserveSlot with the slot's telemetry;
//   - Release for the jobs that finished in the slot, in the order the
//     simulator returned their grants (VM, then grant order).
//
// After each slot every issued grant (job, VM, pool, allocation bits),
// every live grant's allocation, both pools of every VM and the queue
// length must match, and the controller's pools must hold vmPoolLaw.
func replayController(cfg Config) (replayCounts, error) {
	var n replayCounts
	rs, err := newRunState(cfg)
	if err != nil {
		return n, err
	}
	defer rs.release()
	snap, err := PrepareWorkload(cfg)
	if err != nil {
		return n, err
	}
	// The simulator keeps the residents' reservations in its own ledger;
	// the controller reads them off the cluster, which nothing else does.
	for v, r := range snap.Residents() {
		if err := rs.cl.VMs[v].Reserve(r.Request); err != nil {
			return n, err
		}
	}
	ccfg := core.Config{
		Predictor:      rs.cfg.Scheduler.Corp,
		Seed:           rs.cfg.Scheduler.Seed,
		DisablePacking: rs.cfg.Scheduler.DisablePacking,
		AllocMargin:    rs.cfg.Scheduler.CorpAllocMargin,
		Workers:        rs.cfg.Scheduler.Workers,
	}
	// NewController builds exactly this scheduler config; any other field
	// the simulator set would make the two schedulers differ.
	if want := (scheduler.Config{
		Scheme: scheduler.CORP, Corp: ccfg.Predictor, Seed: ccfg.Seed,
		DisablePacking: ccfg.DisablePacking, CorpAllocMargin: ccfg.AllocMargin, Workers: ccfg.Workers,
	}); !reflect.DeepEqual(rs.cfg.Scheduler, want) {
		return n, fmt.Errorf("simulator scheduler config %+v is not the controller's %+v", rs.cfg.Scheduler, want)
	}
	ctrl, err := core.NewController(rs.cl, ccfg)
	if err != nil {
		return n, err
	}
	history, horizon, err := snap.History()
	if err != nil {
		return n, err
	}
	for v, h := range history {
		series := make([]resource.Vector, horizon)
		for t := range series {
			series[t] = h.UnusedAt(t)
		}
		if err := ctrl.Pretrain(v, series); err != nil {
			return n, err
		}
	}

	// checkSlot runs after the slot's faults and telemetry and before its
	// admissions: record the telemetry and who is about to be admitted.
	var unused []resource.Vector
	var admitted []*job.Job
	rs.checkSlot = func(t int, _, u []resource.Vector) {
		unused = u
		admitted = admitted[:0]
		for _, rt := range rs.runtimes[rs.nextArrival:] {
			if rt.Arrival > t {
				break
			}
			admitted = append(admitted, rt.Spec)
		}
		for _, pr := range rs.retries {
			if pr.at <= t {
				admitted = append(admitted, pr.rt.Spec)
			}
		}
	}
	down := make([]bool, len(rs.vms))
	seq := map[job.ID]int{} // live grants, by issue order
	issued := 0
	prev := map[job.ID]resource.Vector{}
	for t := 0; t < rs.horizon; t++ {
		placedBefore := rs.res.PlacedOpportunistic + rs.res.PlacedFresh
		if err := rs.runSlot(t); err != nil {
			return n, err
		}
		for v, d := range rs.downMask {
			switch {
			case d && !down[v]:
				lost, err := ctrl.VMDown(v)
				if err != nil {
					return n, err
				}
				for _, id := range lost {
					if rt := rs.byID[id]; rt.EvictedAt != t {
						return n, fmt.Errorf("slot %d: controller revoked job %d, which the crash of VM %d did not evict", t, id, v)
					}
					if err := ctrl.Cancel(id); err != nil {
						return n, err
					}
					delete(seq, id)
					n.revoked++
				}
			case !d && down[v]:
				if err := ctrl.VMUp(v); err != nil {
					return n, err
				}
			}
			down[v] = d
		}
		for _, j := range admitted {
			if rs.byID[j.ID].Evictions > 0 {
				n.resubmitted++
			}
		}
		if err := ctrl.Submit(admitted); err != nil {
			return n, fmt.Errorf("slot %d: %w", t, err)
		}
		grants, err := ctrl.ObserveSlot(unused)
		if err != nil {
			return n, err
		}
		ctrl.DrainOutcomes()
		if placed := rs.res.PlacedOpportunistic + rs.res.PlacedFresh - placedBefore; len(grants) != placed {
			return n, fmt.Errorf("slot %d: controller issued %d grants, the simulator %d", t, len(grants), placed)
		}
		for _, g := range grants {
			rt := rs.byID[g.Job]
			if rt.Started != t || rt.VM != g.VM || rt.Opportunistic != g.Opportunistic || !sameBits(rt.Allocated, g.Alloc) {
				return n, fmt.Errorf("slot %d: controller granted job %d %+v; the simulator placed it on VM %d at slot %d, opportunistic %v, alloc %v",
					t, g.Job, g, rt.VM, rt.Started, rt.Opportunistic, rt.Allocated)
			}
			seq[g.Job] = issued
			issued++
			if g.Opportunistic {
				n.opp++
			} else {
				n.fresh++
			}
		}

		var finished []job.ID
		for id := range seq {
			if rs.byID[id].Finished == t {
				finished = append(finished, id)
			}
		}
		slices.SortFunc(finished, func(a, b job.ID) int {
			return cmp.Or(cmp.Compare(rs.byID[a].VM, rs.byID[b].VM), cmp.Compare(seq[a], seq[b]))
		})
		for _, id := range finished {
			if err := ctrl.Release(id); err != nil {
				return n, err
			}
			delete(seq, id)
		}

		if err := compareLedgers(rs, ctrl, t); err != nil {
			return n, err
		}
		for id, g := range ctrl.Grants() {
			if t%rs.window == 0 {
				if a, ok := prev[id]; ok && !sameBits(a, g.Alloc) {
					n.resized++
				}
			}
			prev[id] = g.Alloc
		}
	}
	return n, nil
}

// compareLedgers holds the controller's ledger to the simulator's at the
// end of slot t: the queue length, every live grant's allocation, and both
// pools of every VM bit for bit, which the controller's must also hold
// vmPoolLaw on.
func compareLedgers(rs *runState, ctrl *core.Controller, t int) error {
	if ctrl.Pending() != len(rs.queue) {
		return fmt.Errorf("slot %d: controller queues %d jobs, the simulator %d", t, ctrl.Pending(), len(rs.queue))
	}
	live := ctrl.Grants()
	hosted := make([]int, len(rs.vms))
	for id, g := range live {
		hosted[g.VM]++
		if rt := rs.byID[id]; rt.Finished >= 0 || rt.VM != g.VM || !sameBits(rt.Allocated, g.Alloc) {
			return fmt.Errorf("slot %d: controller holds job %d at %v on VM %d; the simulator at %v on VM %d (finished %d)",
				t, id, g.Alloc, g.VM, rt.Allocated, rt.VM, rt.Finished)
		}
	}
	running := 0
	for v := range rs.vms {
		st := &rs.vms[v]
		running += len(st.running)
		pools := scheduler.Pools{Fresh: ctrl.FreshInUse(v), Opp: ctrl.OppInUse(v)}
		if !sameBits(pools.Fresh, st.Fresh) || !sameBits(pools.Opp, st.Opp) {
			return fmt.Errorf("slot %d VM %d: controller pools %+v differ in bits from the simulator's %+v", t, v, pools, st.Pools)
		}
		vm := rs.cl.VMs[v]
		if err := vmPoolLaw(pools, vm.Capacity, vm.Reserved(), ctrl.VMIsDown(v), hosted[v]); err != nil {
			return fmt.Errorf("pool law on the controller: slot %d VM %d: %w", t, v, err)
		}
	}
	if running != len(live) {
		return fmt.Errorf("slot %d: controller holds %d live grants, the simulator runs %d short jobs", t, len(live), running)
	}
	return nil
}
