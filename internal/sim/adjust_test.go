package sim

import (
	"testing"

	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/scheduler"
)

// growAdjuster asks for the same (large) allocation for every running job.
type growAdjuster struct{ want resource.Vector }

func (g growAdjuster) AdjustAlloc(*job.Job, resource.Vector) (resource.Vector, bool) {
	return g.want, true
}

var _ scheduler.Adjuster = growAdjuster{}

// TestAdjustFreshGrowthRespectsLongReservations is the regression pin for
// the mixed-workload over-commit bug: the fresh-growth path computed
// headroom as capacity − reserved − Fresh, silently treating long
// jobs' guaranteed reservations as free. On a VM with capacity 10,
// resident reservation 4, a long job holding 4 and a fresh short job
// holding 1, real headroom is 1 — but the buggy bound let the job grow by
// up to 5, pushing reserved + longReserved + Fresh to 12 of 10.
func TestAdjustFreshGrowthRespectsLongReservations(t *testing.T) {
	one := func(x float64) resource.Vector { return resource.Vector{x, x, x} }
	spec := &job.Job{ID: 1, Duration: 10, Usage: []resource.Vector{one(1)}, Request: one(1)}
	rt := newRuntime(spec, 0)
	rt.Allocated = one(1)
	vms := []vmState{{
		capacity:     one(10),
		reserved:     one(4),
		longReserved: one(4),
		Pools:        scheduler.Pools{Fresh: one(1)},
		running:      []*job.Runtime{rt},
	}}
	st := &vms[0]
	st.rebuildHot()

	applyAdjustments(vms, growAdjuster{want: one(6)})

	total := st.reserved.Add(st.longReserved).Add(st.Fresh)
	if !total.FitsIn(st.capacity) {
		t.Errorf("ledger over-committed: reserved+longReserved+Fresh = %v of %v", total, st.capacity)
	}
	// Real headroom was 1, so the job may grow from 1 to exactly 2.
	if want := one(2); rt.Allocated != want {
		t.Errorf("adjusted allocation = %v, want %v (grow bounded by real headroom)", rt.Allocated, want)
	}
	if want := one(2); st.Fresh != want {
		t.Errorf("Fresh = %v, want %v", st.Fresh, want)
	}

	// Down VMs and opportunistic entities keep their existing behaviour:
	// the opportunistic pool swaps freely (risk lands at execute time).
	opp := newRuntime(spec, 0)
	opp.Allocated = one(1)
	opp.Opportunistic = true
	vmsOpp := []vmState{{capacity: one(10), reserved: one(4), Pools: scheduler.Pools{Opp: one(1)}, running: []*job.Runtime{opp}}}
	vmsOpp[0].rebuildHot()
	applyAdjustments(vmsOpp, growAdjuster{want: one(6)})
	if want := one(6); opp.Allocated != want {
		t.Errorf("opportunistic adjusted allocation = %v, want %v", opp.Allocated, want)
	}
}
