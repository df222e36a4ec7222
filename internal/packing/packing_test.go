package packing

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/resource"
)

// uniform returns a vector with the same amount of every kind.
func uniform(v float64) resource.Vector { return resource.New(v, v, v) }

func mkJob(id int, cpu, mem, sto float64) *job.Job {
	return &job.Job{
		ID:        job.ID(id),
		Duration:  2,
		SLOFactor: 2,
		Usage: []resource.Vector{
			resource.New(cpu, mem, sto),
			resource.New(cpu, mem, sto),
		},
		Request: resource.New(cpu, mem, sto),
	}
}

func TestDeviationFormula(t *testing.T) {
	a := resource.New(4, 0, 0)
	b := resource.New(0, 4, 0)
	// Per kind: CPU (4−2)²+(0−2)² = 8; MEM same = 8; STO 0 → 16.
	if got := Deviation(a, b); math.Abs(got-16) > 1e-12 {
		t.Errorf("Deviation = %v, want 16", got)
	}
	// Equivalently Σ(dj−di)²/2.
	want := (16.0 + 16.0) / 2
	if got := Deviation(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("closed form mismatch: %v vs %v", got, want)
	}
	if Deviation(a, a) != 0 {
		t.Error("identical demands should deviate by 0")
	}
}

// Property: Deviation is symmetric and non-negative.
func TestQuickDeviationSymmetric(t *testing.T) {
	f := func(a, b resource.Vector) bool {
		da := Deviation(a, b)
		db := Deviation(b, a)
		if math.IsNaN(da) || math.IsInf(da, 0) {
			return true
		}
		return da >= 0 && math.Abs(da-db) < 1e-9*(1+math.Abs(da))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewEntitySumsDemand(t *testing.T) {
	e := NewEntity(mkJob(1, 3, 1, 0), mkJob(2, 1, 5, 2))
	if e.Demand != resource.New(4, 6, 2) {
		t.Errorf("Demand = %v", e.Demand)
	}
	if len(e.Jobs) != 2 {
		t.Errorf("Jobs = %d", len(e.Jobs))
	}
}

func TestPackPairsComplementaryJobs(t *testing.T) {
	ref := resource.New(10, 10, 10)
	cpuJob := mkJob(0, 8, 1, 1)  // CPU dominant
	memJob := mkJob(1, 1, 8, 1)  // MEM dominant
	cpuJob2 := mkJob(2, 7, 1, 1) // CPU dominant
	stoJob := mkJob(3, 1, 1, 8)  // storage dominant
	entities := Pack([]*job.Job{cpuJob, memJob, cpuJob2, stoJob}, ref)
	if len(entities) != 2 {
		t.Fatalf("got %d entities, want 2 pairs", len(entities))
	}
	for _, e := range entities {
		if len(e.Jobs) != 2 {
			t.Fatalf("entity has %d jobs, want 2: %+v", len(e.Jobs), e)
		}
		d0 := e.Jobs[0].Dominant(ref)
		d1 := e.Jobs[1].Dominant(ref)
		if d0 == d1 {
			t.Errorf("packed jobs share dominant resource %v", d0)
		}
	}
}

func TestPackChoosesHighestDeviationPartner(t *testing.T) {
	ref := resource.New(10, 10, 10)
	anchor := mkJob(0, 9, 1, 1) // CPU dominant
	weak := mkJob(1, 4, 5, 1)   // MEM dominant, small deviation
	strong := mkJob(2, 1, 9, 1) // MEM dominant, large deviation
	entities := Pack([]*job.Job{anchor, weak, strong}, ref)
	// Anchor must pair with strong; weak is a singleton.
	if len(entities) != 2 {
		t.Fatalf("got %d entities", len(entities))
	}
	first := entities[0]
	if len(first.Jobs) != 2 || first.Jobs[0].ID != 0 || first.Jobs[1].ID != 2 {
		t.Errorf("anchor paired with %v, want job 2", first.Jobs)
	}
	if len(entities[1].Jobs) != 1 || entities[1].Jobs[0].ID != 1 {
		t.Errorf("leftover entity wrong: %v", entities[1].Jobs)
	}
}

func TestPackAllSameDominantYieldsSingletons(t *testing.T) {
	ref := resource.New(10, 10, 10)
	jobs := []*job.Job{mkJob(0, 8, 1, 1), mkJob(1, 7, 2, 1), mkJob(2, 9, 1, 1)}
	entities := Pack(jobs, ref)
	if len(entities) != 3 {
		t.Fatalf("got %d entities, want 3 singletons", len(entities))
	}
	for i, e := range entities {
		if len(e.Jobs) != 1 {
			t.Errorf("entity %d has %d jobs", i, len(e.Jobs))
		}
	}
}

func TestPackEmptyAndSingle(t *testing.T) {
	if got := Pack(nil, uniform(1)); got != nil {
		t.Errorf("Pack(nil) = %v", got)
	}
	one := Pack([]*job.Job{mkJob(0, 1, 1, 1)}, uniform(1))
	if len(one) != 1 || len(one[0].Jobs) != 1 {
		t.Errorf("single job should be one singleton entity: %v", one)
	}
}

// Property: Pack preserves every job exactly once.
func TestQuickPackPartition(t *testing.T) {
	ref := resource.New(10, 10, 10)
	f := func(raw []uint8) bool {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		jobs := make([]*job.Job, len(raw))
		for i, r := range raw {
			jobs[i] = mkJob(i, float64(r%10)+0.5, float64((r/10)%10)+0.5, float64((r/3)%10)+0.5)
		}
		seen := map[job.ID]int{}
		for _, e := range Pack(jobs, ref) {
			if len(e.Jobs) < 1 || len(e.Jobs) > 2 {
				return false
			}
			for _, j := range e.Jobs {
				seen[j.ID]++
			}
		}
		if len(seen) != len(jobs) {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPlacePaperExample reproduces the worked example of Section III-B:
// C′=<25,2,30>; VM unused amounts <5,0,20>, <10,1,10>, <20,2,30>,
// <10,1,8.5> (volumes 0.867, 1.233, 2.8, 1.183). Entity (job3, job4)
// cannot fit on VM1/VM4 and picks VM2 (1.233 < 2.8); entity (job5, job6)
// cannot fit on VM1 and picks VM4 (1.183 < 1.233 < 2.8).
func TestPlacePaperExample(t *testing.T) {
	cprime := resource.New(25, 2, 30)
	candidates := []Candidate{
		{VM: 1, Available: resource.New(5, 0, 20)},
		{VM: 2, Available: resource.New(10, 1, 10)},
		{VM: 3, Available: resource.New(20, 2, 30)},
		{VM: 4, Available: resource.New(10, 1, 8.5)},
	}
	// Entity (job3, job4): needs more than VM1 and VM4 can give; VM2 and
	// VM3 both fit.
	demand34 := resource.New(9, 1, 10)
	vm, ok := Place(demand34, candidates, cprime)
	if !ok || vm != 2 {
		t.Errorf("entity (3,4) placed on VM %d (ok=%v), want VM 2", vm, ok)
	}
	// Entity (job5, job6): fits on VM2, VM3 and VM4; VM4 has the smallest
	// volume.
	demand56 := resource.New(9, 1, 8)
	vm, ok = Place(demand56, candidates, cprime)
	if !ok || vm != 4 {
		t.Errorf("entity (5,6) placed on VM %d (ok=%v), want VM 4", vm, ok)
	}
}

func TestPlaceNoFit(t *testing.T) {
	candidates := []Candidate{{VM: 1, Available: resource.New(1, 1, 1)}}
	if _, ok := Place(resource.New(2, 0, 0), candidates, uniform(10)); ok {
		t.Error("oversized demand should not place")
	}
	if _, ok := Place(resource.New(1, 0, 0), nil, uniform(10)); ok {
		t.Error("no candidates should not place")
	}
}

func TestPlaceTieBreaksByVMID(t *testing.T) {
	candidates := []Candidate{
		{VM: 7, Available: resource.New(2, 2, 2)},
		{VM: 3, Available: resource.New(2, 2, 2)},
	}
	vm, ok := Place(resource.New(1, 1, 1), candidates, uniform(10))
	if !ok || vm != 3 {
		t.Errorf("tie should break to lower VM ID, got %d", vm)
	}
}

// Property: Place only returns candidates that actually fit, and the
// returned VM's volume is minimal among fitting candidates.
func TestQuickPlaceOptimal(t *testing.T) {
	cprime := resource.New(10, 10, 10)
	f := func(raw []uint8, d uint8) bool {
		if len(raw) > 30 {
			raw = raw[:30]
		}
		var candidates []Candidate
		for i, r := range raw {
			candidates = append(candidates, Candidate{
				VM:        i,
				Available: resource.New(float64(r%11), float64((r/2)%11), float64((r/4)%11)),
			})
		}
		demand := uniform(float64(d % 11))
		vm, ok := Place(demand, candidates, cprime)
		minVol := math.Inf(1)
		anyFit := false
		for _, c := range candidates {
			if demand.FitsIn(c.Available) {
				anyFit = true
				if v := c.Available.Volume(cprime); v < minVol {
					minVol = v
				}
			}
		}
		if ok != anyFit {
			return false
		}
		if !ok {
			return true
		}
		return demand.FitsIn(candidates[vm].Available) &&
			candidates[vm].Available.Volume(cprime) <= minVol+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkPack100Jobs(b *testing.B) {
	ref := resource.New(10, 10, 10)
	jobs := make([]*job.Job, 100)
	for i := range jobs {
		jobs[i] = mkJob(i, float64(i%9)+1, float64((i*3)%9)+1, float64((i*7)%9)+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pack(jobs, ref)
	}
}

func BenchmarkPlace200Candidates(b *testing.B) {
	cprime := resource.New(25, 2, 30)
	candidates := make([]Candidate, 200)
	for i := range candidates {
		candidates[i] = Candidate{VM: i, Available: resource.New(float64(i%20), float64(i%3), float64(i%25))}
	}
	demand := resource.New(5, 1, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Place(demand, candidates, cprime)
	}
}
