package packing

import (
	"math/rand"
	"testing"

	"repro/internal/job"
	"repro/internal/resource"
)

// packK packs with a fresh Packer.
func packK(jobs []*job.Job, reference resource.Vector, k int) []Entity {
	var p Packer
	return p.PackK(jobs, reference, k)
}

func TestPackKSingletons(t *testing.T) {
	jobs := []*job.Job{mkJob(0, 8, 1, 1), mkJob(1, 1, 8, 1)}
	out := packK(jobs, uniform(10), 1)
	if len(out) != 2 {
		t.Fatalf("k=1 should yield singletons, got %d entities", len(out))
	}
}

// NewEntity builds an entity over the given jobs, its Demand summed from
// zero in member order.
func NewEntity(jobs ...*job.Job) Entity {
	e := Entity{Jobs: jobs}
	for _, j := range jobs {
		e.Demand = e.Demand.Add(j.PeakDemand())
	}
	return e
}

// pairwisePack is the paper's pairwise packing loop written out on its own:
// each unused job, in list order, pairs with the later unused job of a
// different dominant resource that maximizes the deviation, or stays alone.
// PackK(jobs, ref, 2), and so Pack, must reproduce it exactly.
func pairwisePack(jobs []*job.Job, reference resource.Vector) []Entity {
	used := make([]bool, len(jobs))
	dominant := make([]resource.Kind, len(jobs))
	peaks := make([]resource.Vector, len(jobs))
	for i, j := range jobs {
		peaks[i] = j.PeakDemand()
		dominant[i] = peaks[i].Dominant(reference)
	}
	var entities []Entity
	for i, j := range jobs {
		if used[i] {
			continue
		}
		used[i] = true
		best := -1
		bestDV := -1.0
		for cand := i + 1; cand < len(jobs); cand++ {
			if used[cand] || dominant[cand] == dominant[i] {
				continue
			}
			if dv := Deviation(peaks[i], peaks[cand]); dv > bestDV {
				bestDV = dv
				best = cand
			}
		}
		if best >= 0 {
			used[best] = true
			entities = append(entities, NewEntity(j, jobs[best]))
		} else {
			entities = append(entities, NewEntity(j))
		}
	}
	return entities
}

// TestPackKMatchesPackForPairs pins Pack and PackK at k = 2 to the
// pairwise reference, member for member and bit for bit in the demand, on
// a hand-built batch and on random ones.
func TestPackKMatchesPackForPairs(t *testing.T) {
	ref := uniform(10)
	rng := rand.New(rand.NewSource(11))
	batches := [][]*job.Job{
		nil,
		{mkJob(0, 8, 1, 1), mkJob(1, 1, 8, 1), mkJob(2, 7, 1, 1), mkJob(3, 1, 1, 8)},
	}
	for n := 1; n <= 40; n++ {
		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = mkJob(i, 9*rng.Float64(), 9*rng.Float64(), 9*rng.Float64())
		}
		batches = append(batches, jobs)
	}
	for bi, jobs := range batches {
		want := pairwisePack(jobs, ref)
		for name, got := range map[string][]Entity{"Pack": Pack(jobs, ref), "PackK": packK(jobs, ref, 2)} {
			if len(got) != len(want) {
				t.Fatalf("batch %d: %s %d entities vs reference %d", bi, name, len(got), len(want))
			}
			for i := range want {
				if len(got[i].Jobs) != len(want[i].Jobs) {
					t.Fatalf("batch %d entity %d: %s size %d vs reference %d", bi, i, name, len(got[i].Jobs), len(want[i].Jobs))
				}
				for j := range want[i].Jobs {
					if got[i].Jobs[j].ID != want[i].Jobs[j].ID {
						t.Errorf("batch %d entity %d member %d: %s %d vs reference %d", bi, i, j, name, got[i].Jobs[j].ID, want[i].Jobs[j].ID)
					}
				}
				if got[i].Demand != want[i].Demand {
					t.Errorf("batch %d entity %d demand: %s %v vs reference %v", bi, i, name, got[i].Demand, want[i].Demand)
				}
			}
		}
	}
	if Pack(nil, ref) != nil {
		t.Error("Pack(nil) is not nil")
	}
}

// TestPackerReuse pins the scratch reuse: a Packer that has packed larger
// and smaller batches before returns exactly what a fresh one does, and once
// warm it packs without allocating.
func TestPackerReuse(t *testing.T) {
	ref := uniform(10)
	rng := rand.New(rand.NewSource(3))
	batch := func(n int) []*job.Job {
		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = mkJob(i, 9*rng.Float64(), 9*rng.Float64(), 9*rng.Float64())
		}
		return jobs
	}
	var warm Packer
	for _, n := range []int{40, 7, 25, 0, 40} {
		jobs := batch(n)
		for _, k := range []int{1, 2, 3} {
			got, want := warm.PackK(jobs, ref, k), packK(jobs, ref, k)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: %d entities, fresh packer %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Demand != want[i].Demand || len(got[i].Jobs) != len(want[i].Jobs) {
					t.Fatalf("n=%d k=%d: entity %d differs from a fresh packer's", n, k, i)
				}
				for m := range want[i].Jobs {
					if got[i].Jobs[m] != want[i].Jobs[m] {
						t.Fatalf("n=%d k=%d: entity %d member %d differs", n, k, i, m)
					}
				}
			}
		}
	}
	jobs := batch(40)
	if avg := testing.AllocsPerRun(20, func() { warm.PackK(jobs, ref, 2) }); avg != 0 {
		t.Errorf("warm PackK allocates %.1f times per call", avg)
	}
}

func TestPackKTriples(t *testing.T) {
	ref := uniform(10)
	jobs := []*job.Job{
		mkJob(0, 8, 1, 1), // CPU
		mkJob(1, 1, 8, 1), // MEM
		mkJob(2, 1, 1, 8), // STO
	}
	out := packK(jobs, ref, 3)
	if len(out) != 1 {
		t.Fatalf("three complementary jobs should form one entity, got %d", len(out))
	}
	if len(out[0].Jobs) != 3 {
		t.Errorf("entity has %d members", len(out[0].Jobs))
	}
	// A fourth CPU job cannot join (dominant already present).
	jobs = append(jobs, mkJob(3, 7, 1, 1))
	out = packK(jobs, ref, 3)
	if len(out) != 2 {
		t.Fatalf("got %d entities, want 2", len(out))
	}
}

// Property: PackK preserves every job exactly once and respects k.
func TestPackKPartition(t *testing.T) {
	ref := uniform(10)
	var jobs []*job.Job
	for i := 0; i < 30; i++ {
		jobs = append(jobs, mkJob(i, float64(i%9)+0.5, float64((i*3)%9)+0.5, float64((i*7)%9)+0.5))
	}
	for _, k := range []int{1, 2, 3} {
		seen := map[job.ID]int{}
		for _, e := range packK(jobs, ref, k) {
			if len(e.Jobs) < 1 || (k >= 2 && len(e.Jobs) > k) || (k < 2 && len(e.Jobs) != 1) {
				t.Fatalf("k=%d: entity size %d", k, len(e.Jobs))
			}
			for _, j := range e.Jobs {
				seen[j.ID]++
			}
		}
		if len(seen) != len(jobs) {
			t.Fatalf("k=%d: %d jobs seen of %d", k, len(seen), len(jobs))
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("k=%d: job %d appears %d times", k, id, c)
			}
		}
	}
}

func strategyCandidates() []Candidate {
	return []Candidate{
		{VM: 0, Available: uniform(2)},
		{VM: 1, Available: uniform(9)},
		{VM: 2, Available: uniform(4)},
	}
}

func TestMostMatchedStrategy(t *testing.T) {
	vm, ok := MostMatched{}.Choose(uniform(1), strategyCandidates(), uniform(10))
	if !ok || vm != 0 {
		t.Errorf("most-matched chose %d (ok=%v), want 0", vm, ok)
	}
}

func TestFirstFitStrategy(t *testing.T) {
	// Demand 3: VM0 (2) fails; VM1 fits first in order.
	vm, ok := FirstFit{}.Choose(uniform(3), strategyCandidates(), uniform(10))
	if !ok || vm != 1 {
		t.Errorf("first-fit chose %d, want 1", vm)
	}
	if _, ok := (FirstFit{}).Choose(uniform(99), strategyCandidates(), uniform(10)); ok {
		t.Error("oversized demand should not fit")
	}
}

func TestWorstFitStrategy(t *testing.T) {
	vm, ok := WorstFit{}.Choose(uniform(1), strategyCandidates(), uniform(10))
	if !ok || vm != 1 {
		t.Errorf("worst-fit chose %d, want the biggest pool (1)", vm)
	}
	if _, ok := (WorstFit{}).Choose(uniform(99), strategyCandidates(), uniform(10)); ok {
		t.Error("oversized demand should not fit")
	}
}

func TestRandomFitStrategy(t *testing.T) {
	r := RandomFit{Rng: rand.New(rand.NewSource(1))}
	counts := map[int]int{}
	for i := 0; i < 300; i++ {
		vm, ok := r.Choose(uniform(1), strategyCandidates(), uniform(10))
		if !ok {
			t.Fatal("should fit")
		}
		counts[vm]++
	}
	for _, vm := range []int{0, 1, 2} {
		if counts[vm] < 50 {
			t.Errorf("VM %d chosen only %d/300 times; not uniform", vm, counts[vm])
		}
	}
	// Nil RNG degrades to first fit.
	vm, ok := (RandomFit{}).Choose(uniform(1), strategyCandidates(), uniform(10))
	if !ok || vm != 0 {
		t.Errorf("nil-rng random fit chose %d", vm)
	}
}

// Property: every strategy returns only candidates that fit.
func TestStrategiesOnlyReturnFits(t *testing.T) {
	strategies := []Strategy{MostMatched{}, FirstFit{}, WorstFit{}, RandomFit{Rng: rand.New(rand.NewSource(2))}}
	ref := uniform(10)
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var candidates []Candidate
		for i := 0; i < 6; i++ {
			candidates = append(candidates, Candidate{
				VM:        i,
				Available: resource.New(rng.Float64()*8, rng.Float64()*8, rng.Float64()*8),
			})
		}
		demand := uniform(rng.Float64() * 8)
		for _, s := range strategies {
			vm, ok := s.Choose(demand, candidates, ref)
			if !ok {
				continue
			}
			if !demand.FitsIn(candidates[vm].Available) {
				t.Fatalf("%T returned VM %d that does not fit", s, vm)
			}
		}
	}
}
