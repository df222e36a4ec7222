package scheduler

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/predict"
	"repro/internal/resource"
)

// flatOracle is the flat scan the suspect index must reproduce exactly:
// the generic loop over every lane of the live pool+eps arrays.
func flatOracle(q *[3][]float64, d0, d1, d2 float64) []int32 {
	return fitScanGeneric(q[0], q[1], q[2], d0, d1, d2, nil, 0)
}

// TestSuspectIndexMatchesFlat drives a suspectIndex through long
// placement-like sequences — gated demands, decrements of chosen lanes,
// threshold demotions into the overflow list, forced rebuilds — and pins
// candidate count and every selected lane against the flat scan over the
// live arrays. Pools include -Inf down sentinels, NaN lanes, and values
// exactly on the eps boundary.
func TestSuspectIndexMatchesFlat(t *testing.T) {
	for _, ovfMax := range []int{256, 4} {
		ovfMax := ovfMax
		t.Run(map[int]string{256: "ovf256", 4: "ovf4-rebuilds"}[ovfMax], func(t *testing.T) {
			old := suspectOverflowMax
			suspectOverflowMax = ovfMax
			defer func() { suspectOverflowMax = old }()

			for _, n := range []int{50, 200, 1024, 1031} {
				rng := rand.New(rand.NewSource(int64(1000 + n)))
				p, q := fillPools(rng, n)

				// The call's demand population: mostly moderate, with
				// exact-boundary and zero entries, plus a heavy tail that
				// the p98 threshold will exclude (gate rejections).
				demands := make([][3]float64, 300)
				for i := range demands {
					for k := 0; k < 3; k++ {
						switch i % 17 {
						case 0:
							demands[i][k] = 0.5 // boundary vs fillPools' 0.5 lanes
						case 1:
							demands[i][k] = 0
						case 2:
							demands[i][k] = 2 + rng.Float64() // tail above t
						default:
							demands[i][k] = rng.Float64() * 0.8
						}
					}
				}
				tq := demandQuantile(demands, nil)

				var idx suspectIndex
				idx.reset()
				idx.build(&q, tq)
				gatedSeen, selChecks := 0, 0
				for step := 0; step < 400; step++ {
					d := demands[rng.Intn(len(demands))]
					if !(d[0] <= tq[0] && d[1] <= tq[1] && d[2] <= tq[2]) {
						continue // randomFit's gate: production takes the flat path here
					}
					gatedSeen++
					want := flatOracle(&q, d[0], d[1], d[2])
					count := idx.scan(&q, d[0], d[1], d[2])
					if count != len(want) {
						t.Fatalf("n=%d step=%d d=%v: count=%d, flat=%d",
							n, step, d, count, len(want))
					}
					if count == 0 {
						continue
					}
					rs := []int{0, count / 2, count - 1, rng.Intn(count)}
					for _, r := range rs {
						if got := idx.selectNth(r); got != int(want[r]) {
							t.Fatalf("n=%d step=%d d=%v: selectNth(%d)=%d, flat[%d]=%d",
								n, step, d, r, got, r, want[r])
						}
						selChecks++
					}
					// Place on a fitting lane: decrement live pools with the
					// production clamp semantics, then noteUpdate. Most lanes
					// are non-suspect, so large demands demote them into the
					// overflow list; with ovfMax=4 this forces rebuilds.
					lane := int(want[rng.Intn(count)])
					for k := 0; k < 3; k++ {
						pk := p[k][lane] - d[k]
						if pk < 0 {
							pk = 0
						}
						p[k][lane] = pk
						q[k][lane] = pk + fitEps
					}
					idx.noteUpdate(&q, lane)
				}
				if gatedSeen == 0 || selChecks == 0 {
					t.Fatalf("n=%d: test exercised nothing (gated=%d sel=%d)", n, gatedSeen, selChecks)
				}
			}
		})
	}
}

// TestSuspectIndexEmptyAndSaturated covers the degenerate ends: no lane
// fits a gated demand, and every lane is suspect.
func TestSuspectIndexEmptyAndSaturated(t *testing.T) {
	var q [3][]float64
	n := 24
	for k := 0; k < 3; k++ {
		q[k] = make([]float64, n)
		for i := range q[k] {
			q[k][i] = 0.1 + fitEps // every lane below t: all suspect
		}
	}
	q[0][3] = math.Inf(-1) // a down lane among them
	var idx suspectIndex
	tq := [3]float64{0.5, 0.5, 0.5}
	idx.build(&q, tq)
	if len(idx.sidx) != n {
		t.Fatalf("all lanes should be suspect, got %d/%d", len(idx.sidx), n)
	}
	if got := idx.scan(&q, 0.5, 0.5, 0.5); got != 0 {
		t.Fatalf("nothing fits 0.5: count=%d", got)
	}
	// A demand at zero fits everything except the down lane.
	if got := idx.scan(&q, 0, 0, 0); got != n-1 {
		t.Fatalf("zero demand: count=%d, want %d", got, n-1)
	}
	want := flatOracle(&q, 0, 0, 0)
	for r := range want {
		if got := idx.selectNth(r); got != int(want[r]) {
			t.Fatalf("selectNth(%d)=%d, flat=%d", r, got, want[r])
		}
	}

	// All-up fleet, small demand: every suspect fits too, so every lane
	// is a candidate and selection short-circuits to the rank itself.
	for k := 0; k < 3; k++ {
		for i := range q[k] {
			q[k][i] = 0.4 + 0.1*float64(i%3) + fitEps
		}
	}
	idx.build(&q, tq)
	if len(idx.sidx) == 0 || len(idx.sidx) == n {
		t.Fatalf("want a mixed suspect split, got %d/%d", len(idx.sidx), n)
	}
	if got := idx.scan(&q, 0.1, 0.1, 0.1); got != n {
		t.Fatalf("all-fit count=%d, want %d", got, n)
	}
	allWant := flatOracle(&q, 0.1, 0.1, 0.1)
	for r := range allWant {
		if got := idx.selectNth(r); got != int(allWant[r]) {
			t.Fatalf("all-fit selectNth(%d)=%d, flat=%d", r, got, allWant[r])
		}
	}
}

// mkSuspectBatch builds one Place call's job batch: mostly moderate
// demands that pass the p98 gate, a heavy tail that takes the flat path,
// and a few zero-demand jobs.
func mkSuspectBatch(nextID *int, rng *rand.Rand, n int) []*job.Job {
	js := make([]*job.Job, n)
	for i := range js {
		var cpu, mem, sto float64
		switch i % 23 {
		case 0: // tail: above the call's p98 threshold
			cpu, mem, sto = 3+rng.Float64()*2, 12+rng.Float64()*8, 120+rng.Float64()*60
		case 1:
			cpu, mem, sto = 0, 0, 0
		default:
			cpu = rng.Float64() * 1.5
			mem = rng.Float64() * 6
			sto = rng.Float64() * 60
		}
		js[i] = mkJob(*nextID, cpu, mem, sto)
		*nextID++
	}
	return js
}

// TestRandomSchedulerSuspectEquivalence runs the same RCCR placement
// sequence on a 1200-VM fleet twice — suspect index forced on, then
// forced off (flat scans only) — and requires bit-identical placements.
// Any divergence in a candidate count would skew the shared RNG stream
// and cascade, so this pins the whole randomFit fast path end to end.
func TestRandomSchedulerSuspectEquivalence(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Profile: cluster.ProfileCluster, NumPMs: 300, NumVMs: 1200})
	if err != nil {
		t.Fatal(err)
	}

	type rec struct {
		job   int
		vm    int
		opp   bool
		alloc resource.Vector
	}
	run := func(minLanes int) []rec {
		old := suspectMinLanes
		suspectMinLanes = minLanes
		defer func() { suspectMinLanes = old }()

		s, err := New(Config{Scheme: RCCR, Seed: 7}, cl)
		if err != nil {
			t.Fatal(err)
		}
		rs := s.(*randomScheduler)
		rng := rand.New(rand.NewSource(99))
		var out []rec
		jobID := 0
		for round := 0; round < 6; round++ {
			views := make([]VMView, len(cl.VMs))
			for i := range views {
				if rng.Intn(97) == 0 {
					views[i] = VMView{Down: true}
					continue
				}
				c := cl.VMs[i].Capacity
				f := 0.2 + 0.8*rng.Float64()
				views[i] = VMView{
					FreshAvailable: c.Scale(f * 0.4),
					OppInUse:       c.Scale(rng.Float64() * 0.1),
				}
				rs.latest[i] = predict.Prediction{
					Unused:   c.Scale(rng.Float64() * 0.5),
					Unlocked: true,
				}
			}
			js := mkSuspectBatch(&jobID, rng, 350)
			for _, p := range s.Place(js, views) {
				out = append(out, rec{
					job: int(p.Jobs[0].ID), vm: p.VM,
					opp: p.Opportunistic, alloc: p.Allocs[0],
				})
			}
		}
		return out
	}

	on := run(1)        // suspect path active for every Place call
	off := run(1 << 30) // flat scans only
	if len(on) != len(off) {
		t.Fatalf("placement count diverged: suspect=%d flat=%d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("placement %d diverged: suspect=%+v flat=%+v", i, on[i], off[i])
		}
	}
	if len(on) == 0 {
		t.Fatal("no placements made; test exercised nothing")
	}
}
