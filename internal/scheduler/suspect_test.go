package scheduler

import (
	"math"
	"math/rand"
	"sort"
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

// driveSuspectIndex runs one placement-like sequence of steps over an
// n-lane pool — gated demands, decrements of chosen lanes, threshold
// demotions into the overflow list, rebuilds once it outgrows
// suspectOverflowMax — and pins the candidate count and the selected lane
// for every rank r against the flat scan over the live arrays. Pools
// include -Inf down sentinels, NaN lanes, and values exactly on the eps
// boundary. It returns how many gated demands and picks it checked, and
// how many of the picks had overflow lanes to account for.
func driveSuspectIndex(t testing.TB, rng *rand.Rand, n, steps int) (gated, picks, ovfPicks int) {
	p, q := fillPools(rng, n)

	// The call's demand population: mostly moderate, with exact-boundary
	// and zero entries, plus a heavy tail that the p98 threshold will
	// exclude (gate rejections). The tail is 5 of 300 demands and the
	// boundary entries are the next largest, so the threshold is 0.5: a
	// share of lanes is non-suspect, and placements demote some of them
	// into the overflow list.
	demands := make([]resource.Vector, 300)
	for i := range demands {
		for k := 0; k < 3; k++ {
			switch {
			case i%60 == 2:
				demands[i][k] = 2 + rng.Float64() // tail above t
			case i%17 == 0:
				demands[i][k] = 0.5 // boundary vs fillPools' 0.5 lanes
			case i%17 == 1:
				demands[i][k] = 0
			default:
				demands[i][k] = rng.Float64() * 0.45
			}
		}
	}
	tq, _ := demandQuantile(demands, nil)

	var idx suspectIndex
	idx.reset()
	idx.build(&q, tq)
	for step := 0; step < steps; step++ {
		d := demands[rng.Intn(len(demands))]
		if !(d[0] <= tq[0] && d[1] <= tq[1] && d[2] <= tq[2]) {
			continue // randomFit's gate: production takes the flat path here
		}
		gated++
		want := flatOracle(&q, d[0], d[1], d[2])
		count := idx.scan(&q, d[0], d[1], d[2])
		if count != len(want) {
			t.Fatalf("n=%d step=%d d=%v: count=%d, flat=%d", n, step, d, count, len(want))
		}
		if count == 0 {
			continue
		}
		for r := 0; r < count; r++ {
			if got := idx.selectNth(r); got != int(want[r]) {
				t.Fatalf("n=%d step=%d d=%v: selectNth(%d)=%d, flat[%d]=%d",
					n, step, d, r, got, r, want[r])
			}
			picks++
			if len(idx.ovf) > 0 {
				ovfPicks++
			}
		}
		// Place on a fitting lane: decrement live pools with the
		// production clamp semantics, then noteUpdate. Most lanes are
		// non-suspect, so large demands demote them into the overflow
		// list; a small suspectOverflowMax forces rebuilds.
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
	return gated, picks, ovfPicks
}

// withOverflowMax runs f with suspectOverflowMax set to n.
func withOverflowMax(n int, f func()) {
	old := suspectOverflowMax
	suspectOverflowMax = n
	defer func() { suspectOverflowMax = old }()
	f()
}

// TestSuspectIndexMatchesFlat drives the suspect index through long
// placement-like sequences on fleets up to 1031 lanes and checks every
// rank of every gated demand against the flat scan.
func TestSuspectIndexMatchesFlat(t *testing.T) {
	for _, ovfMax := range []int{256, 4} {
		t.Run(map[int]string{256: "ovf256", 4: "ovf4-rebuilds"}[ovfMax], func(t *testing.T) {
			withOverflowMax(ovfMax, func() {
				ovfSeen := 0
				for _, n := range []int{50, 200, 1024, 1031} {
					rng := rand.New(rand.NewSource(int64(1000 + n)))
					gated, picks, ovfPicks := driveSuspectIndex(t, rng, n, 400)
					t.Logf("n=%d: %d gated demands, %d picks, %d with overflow lanes", n, gated, picks, ovfPicks)
					if gated == 0 || picks == 0 {
						t.Fatalf("n=%d: test exercised nothing (gated=%d picks=%d)", n, gated, picks)
					}
					ovfSeen += ovfPicks
				}
				if ovfSeen == 0 {
					t.Fatal("no pick had overflow lanes to step past")
				}
			})
		})
	}
}

// FuzzSuspectSelect drives the suspect index over fuzz-chosen pools,
// demands and placement sequences, with the overflow list either roomy or
// forced to rebuild every few demotions: every pick must be the flat
// scan's lane at that rank.
func FuzzSuspectSelect(f *testing.F) {
	f.Add(int64(1), uint16(1100), false, uint8(40))
	f.Add(int64(2), uint16(300), true, uint8(80))
	f.Add(int64(3), uint16(1), true, uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, nb uint16, rebuild bool, steps uint8) {
		ovfMax := 256
		if rebuild {
			ovfMax = 4
		}
		withOverflowMax(ovfMax, func() {
			driveSuspectIndex(t, rand.New(rand.NewSource(seed)), int(nb%1500), int(steps%64))
		})
	})
}

// TestDemandQuantileMatchesSort pins the selection-based quantile against
// the full sort it replaced, bit for bit, on inputs heavy with zeros and
// duplicates, at the p98 rank and (up to 300 demands) at every rank. It
// also checks that a scratch buffer large enough is reused, not
// reallocated.
func TestDemandQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var scratch []float64
	for _, m := range []int{1, 2, 3, 7, 50, 51, 300, 1000} {
		for trial := 0; trial < 20; trial++ {
			demands := make([]resource.Vector, m)
			for i := range demands {
				for k := 0; k < 3; k++ {
					switch rng.Intn(8) {
					case 0, 1:
						demands[i][k] = 0
					case 2, 3:
						demands[i][k] = float64(rng.Intn(4)) * 0.25 // duplicates
					default:
						demands[i][k] = rng.Float64()
					}
				}
			}
			var got [3]float64
			got, scratch = demandQuantile(demands, scratch)
			idx := int(float64(m-1) * suspectQuantile)
			for k := 0; k < 3; k++ {
				col := make([]float64, m)
				for i := range demands {
					col[i] = demands[i][k]
				}
				sorted := append([]float64(nil), col...)
				sort.Float64s(sorted)
				if math.Float64bits(got[k]) != math.Float64bits(sorted[idx]) {
					t.Fatalf("m=%d trial=%d kind %d: quantile %v, sort gives %v", m, trial, k, got[k], sorted[idx])
				}
				if m > 300 {
					continue
				}
				// Every rank, not just the p98 one.
				work := make([]float64, m)
				for r := 0; r < m; r++ {
					copy(work, col)
					if v := nthFloat64(work, r); math.Float64bits(v) != math.Float64bits(sorted[r]) {
						t.Fatalf("m=%d trial=%d kind %d rank %d: nth %v, sort gives %v", m, trial, k, r, v, sorted[r])
					}
				}
			}
		}
	}
	kept := &scratch[0]
	if _, again := demandQuantile(make([]resource.Vector, 10), scratch); &again[0] != kept {
		t.Error("demandQuantile reallocated a scratch buffer that was large enough")
	}
}

// TestRandomSchedulerPlaceDoesNotAllocate is the placement phase's
// allocation gate on a fleet wide enough for the suspect index: once a
// Place call has sized the scheduler's buffers, a warm call of the same
// shape (SoA pools, demands, quantile scratch, suspect indexes, placement
// arena) touches the heap not at all.
func TestRandomSchedulerPlaceDoesNotAllocate(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Profile: cluster.ProfileCluster, NumPMs: 300, NumVMs: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.VMs) < suspectMinLanes {
		t.Fatalf("%d VMs: below suspectMinLanes %d, the suspect index stays off", len(cl.VMs), suspectMinLanes)
	}
	s, err := New(Config{Scheme: RCCR, Seed: 3}, cl)
	if err != nil {
		t.Fatal(err)
	}
	rs := s.(*randomScheduler)
	views := make([]VMView, len(cl.VMs))
	for i := range views {
		if i%50 == 0 {
			views[i] = VMView{Down: true} // suspects no demand fits
			continue
		}
		c := cl.VMs[i].Capacity
		views[i] = VMView{FreshAvailable: c.Scale(0.5)}
		rs.latest[i] = predict.Prediction{Unused: c.Scale(0.5), Unlocked: true}
	}
	// Tiny demands: every job fits some pool on every call, so each call
	// places the whole batch and the arena never has to grow.
	rng := rand.New(rand.NewSource(4))
	js := make([]*job.Job, 200)
	for i := range js {
		js[i] = mkJob(i, rng.Float64()*0.01, rng.Float64()*0.01, rng.Float64()*0.01)
	}
	if got := len(s.Place(js, views)); got != len(js) {
		t.Fatalf("placed %d of %d jobs", got, len(js))
	}
	if !rs.susOn || !rs.susOpp.built {
		t.Fatal("the suspect index did not engage")
	}
	if n := testing.AllocsPerRun(20, func() { s.Place(js, views) }); n != 0 {
		t.Errorf("warm Place allocates %v times per call, want 0", n)
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
