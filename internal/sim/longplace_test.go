package sim

import (
	"math/rand"
	"testing"

	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/scheduler"
)

// placeLongReference is the long-job placement as it was before the dense
// volume column: for each due arrival, scan every up VM's Headroom(guaranteed()),
// keep those the request fits, take the strictly largest volume (so the
// lowest index wins a tie). Production must pick the same VM every time.
// It returns how many placements were decided by that tie rule.
func (rs *runState) placeLongReference(t int) (ties int) {
	for rs.nextLong < len(rs.longRuntimes) && rs.longRuntimes[rs.nextLong].Arrival <= t {
		rt := rs.longRuntimes[rs.nextLong]
		rs.nextLong++
		bestVM, bestVol, tied := -1, -1.0, false
		need := rt.Spec.Request
		for v := range rs.vms {
			if rs.downMask[v] {
				continue
			}
			head := rs.vms[v].Headroom(rs.vms[v].guaranteed())
			if !need.FitsIn(head) {
				continue
			}
			if vol := head.Volume(rs.maxVMCap); vol > bestVol {
				bestVM, bestVol, tied = v, vol, false
			} else if vol == bestVol {
				tied = true
			}
		}
		if bestVM < 0 {
			rs.res.LongUnplaced++
			continue
		}
		if tied {
			ties++
		}
		st := &rs.vms[bestVM]
		st.longReserved = st.longReserved.Add(need)
		rt.VM = bestVM
		rt.Started = t
		rt.Allocated = need
		st.longRunning = append(st.longRunning, rt)
		rs.longActive++
		rs.res.LongPlaced++
	}
	return ties
}

// longFleet builds a hand-assembled run state for the placement phase
// alone: n VMs whose ledgers come from a handful of quantised shapes (so
// equal-volume ties are the norm, not the exception), a few of them down,
// and long arrivals bunched on slots 0 and 3 — small requests, requests
// only an empty VM can hold, and one nothing can hold.
func longFleet(seed int64, n int) *runState {
	rng := rand.New(rand.NewSource(seed))
	rs := &runState{res: &Result{}, vms: make([]vmState, n)}
	for v := range rs.vms {
		q := float64(rng.Intn(3))
		rs.vms[v] = vmState{
			capacity: resource.Vector{8, 32, 100},
			reserved: resource.Vector{2 + q, 8 + 4*q, 20},
			Pools:    scheduler.Pools{Fresh: resource.Vector{float64(rng.Intn(2)), 0, 10 * float64(rng.Intn(2))}},
		}
	}
	rs.maxVMCap = resource.Vector{8, 32, 100}
	for i := 0; i < 3*n; i++ {
		req := resource.Vector{float64(1 + rng.Intn(3)), float64(2 + 2*rng.Intn(4)), float64(5 * rng.Intn(5))}
		switch rng.Intn(8) {
		case 0:
			req = resource.Vector{6, 24, 80} // only an untouched VM of the smallest shape
		case 1:
			req = resource.Vector{9, 1, 1} // exceeds every capacity
		}
		arrival := 0
		if i >= 2*n {
			arrival = 3
		}
		spec := &job.Job{ID: job.ID(i), Request: req, Usage: []resource.Vector{req}, Duration: 50}
		rs.longRuntimes = append(rs.longRuntimes, newRuntime(spec, arrival))
	}
	rs.initScratch()
	for v := range rs.vms {
		if rng.Intn(6) == 0 {
			rs.setDown(v, true)
		}
	}
	return rs
}

// TestPlaceLongMatchesReference drives production placement and the
// reference over identical randomised fleets: several arrivals per slot
// (each must see the reservations of the ones before it), down VMs, a
// recovery and a crash between the two arrival slots, requests nothing
// fits.
func TestPlaceLongMatchesReference(t *testing.T) {
	ties, unplaced := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		n := 3 + int(seed)%14
		got, want := longFleet(seed, n), longFleet(seed, n)
		got.placeLongArrivals(0)
		ties += want.placeLongReference(0)
		for _, rs := range []*runState{got, want} {
			// Between the arrival slots every down VM recovers and VM 0
			// crashes, dropping its reservations as advanceFaults does.
			for v := range rs.vms {
				rs.setDown(v, false)
			}
			rs.setDown(0, true)
			rs.vms[0].longRunning, rs.vms[0].longReserved = nil, resource.Vector{}
		}
		got.placeLongArrivals(2) // nothing due: must be a no-op
		got.placeLongArrivals(3)
		ties += want.placeLongReference(3)

		for i, rt := range got.longRuntimes {
			if ref := want.longRuntimes[i]; rt.VM != ref.VM || rt.Started != ref.Started || rt.Allocated != ref.Allocated {
				t.Fatalf("seed %d arrival %d (request %v): production chose VM %d at %d, reference VM %d at %d",
					seed, i, rt.Spec.Request, rt.VM, rt.Started, ref.VM, ref.Started)
			}
		}
		for v := range got.vms {
			if got.vms[v].longReserved != want.vms[v].longReserved || len(got.vms[v].longRunning) != len(want.vms[v].longRunning) {
				t.Fatalf("seed %d VM %d: ledgers diverged", seed, v)
			}
		}
		if got.res.LongPlaced != want.res.LongPlaced || got.res.LongUnplaced != want.res.LongUnplaced ||
			got.longActive != want.longActive {
			t.Fatalf("seed %d: counters diverged: %+v vs %+v", seed, got.res, want.res)
		}
		if got.nextLong != len(got.longRuntimes) {
			t.Fatalf("seed %d: %d of %d arrivals consumed", seed, got.nextLong, len(got.longRuntimes))
		}
		unplaced += got.res.LongUnplaced
	}
	if ties == 0 || unplaced == 0 {
		t.Fatalf("fleets never produced a tie (%d) or an unplaceable request (%d); the comparison is too easy", ties, unplaced)
	}
	t.Logf("%d tie-broken placements, %d unplaceable requests", ties, unplaced)
}

// TestPlaceLongTieBreakLowestIndex is the tie rule on its own: on a fleet
// of identical VMs each arrival of one slot goes to the lowest-indexed VM
// with the most headroom left, so same-slot arrivals fan out in index
// order, skip a down VM, and wrap once every VM holds one.
func TestPlaceLongTieBreakLowestIndex(t *testing.T) {
	one := func(x float64) resource.Vector { return resource.Vector{x, x, x} }
	rs := &runState{res: &Result{}, vms: make([]vmState, 4), maxVMCap: one(10)}
	for v := range rs.vms {
		rs.vms[v] = vmState{capacity: one(10), reserved: one(2)}
	}
	for i := 0; i < 5; i++ {
		spec := &job.Job{ID: job.ID(i), Request: one(3), Usage: []resource.Vector{one(1)}, Duration: 9}
		rs.longRuntimes = append(rs.longRuntimes, newRuntime(spec, 0))
	}
	rs.initScratch()
	rs.setDown(1, true)
	rs.placeLongArrivals(0)
	for i, want := range []int{0, 2, 3, 0, 2} {
		if got := rs.longRuntimes[i].VM; got != want {
			t.Errorf("arrival %d placed on VM %d, want %d", i, got, want)
		}
	}
}
