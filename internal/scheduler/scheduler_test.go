package scheduler

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/predict"
	"repro/internal/resource"
)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Profile: cluster.ProfileCluster, NumPMs: 2, NumVMs: 4})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func mkJob(id int, cpu, mem, sto float64) *job.Job {
	return &job.Job{
		ID: job.ID(id), Duration: 2, SLOFactor: 2,
		Usage: []resource.Vector{
			resource.New(cpu, mem, sto),
			resource.New(cpu, mem, sto),
		},
		Request: resource.New(cpu, mem, sto),
	}
}

// TestNewAllocationsDoNotGrowWithFleet pins the fleet constructors: a
// scheme's predictors, trackers, rings and forecasters come from a few slabs
// sized by the config, so doubling the fleet adds (next to) no allocations
// to New where it used to add a dozen or more per VM.
func TestNewAllocationsDoNotGrowWithFleet(t *testing.T) {
	clusterOf := func(vms int) *cluster.Cluster {
		cl, err := cluster.New(cluster.Config{Profile: cluster.ProfileCluster, NumPMs: vms / 4, NumVMs: vms})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	small, large := clusterOf(200), clusterOf(400)
	for _, sc := range []Scheme{CORP, RCCR, CloudScale, DRA} {
		allocs := func(cl *cluster.Cluster) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := New(Config{Scheme: sc, Seed: 1}, cl); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(small), allocs(large); b-a > 8 {
			t.Errorf("%v: New allocates %.0f times for 200 VMs and %.0f for 400, want at most 8 more", sc, a, b)
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{CORP: "CORP", RCCR: "RCCR", CloudScale: "CloudScale", DRA: "DRA"}
	for sc, name := range want {
		if sc.String() != name {
			t.Errorf("%d.String() = %q", int(sc), sc.String())
		}
	}
	if Scheme(9).String() != "Scheme(9)" {
		t.Error("unknown scheme name wrong")
	}
	if len(Schemes()) != 4 {
		t.Error("Schemes() should list all four")
	}
}

func TestNewAllSchemes(t *testing.T) {
	cl := testCluster(t)
	for _, sc := range Schemes() {
		s, err := New(Config{Scheme: sc, Seed: 1}, cl)
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if s.Name() != sc.String() {
			t.Errorf("%v: Name = %q", sc, s.Name())
		}
		if s.Window() != 6 {
			t.Errorf("%v: Window = %d, want default 6", sc, s.Window())
		}
	}
	if _, err := New(Config{Scheme: Scheme(9)}, cl); err == nil {
		t.Error("unknown scheme should fail")
	}
}

// feedAndRefresh warms a scheduler with a constant unused level,
// refreshing forecasts every window so predictions mature and error
// statistics accumulate.
func feedAndRefresh(s Scheduler, cl *cluster.Cluster, unused resource.Vector, slots int) {
	for t := 0; t < slots; t++ {
		if t%s.Window() == 0 {
			s.Refresh()
		}
		for v := range cl.VMs {
			s.Observe(v, unused)
		}
	}
	s.Refresh()
}

func openViews(cl *cluster.Cluster) []VMView {
	views := make([]VMView, len(cl.VMs))
	for i, vm := range cl.VMs {
		views[i] = VMView{FreshAvailable: vm.Capacity}
	}
	return views
}

func TestCorpPacksComplementaryArrivals(t *testing.T) {
	cl := testCluster(t)
	s, err := New(Config{Scheme: CORP, Seed: 1, Corp: predict.CorpConfig{Pth: 0.01, Epsilon: 0.9}}, cl)
	if err != nil {
		t.Fatal(err)
	}
	// Constant unused level: predictions trivially accurate → unlocked.
	feedAndRefresh(s, cl, resource.New(2, 8, 90), 80)
	s.Refresh()

	jobs := []*job.Job{
		mkJob(0, 1.5, 0.5, 1), // CPU dominant
		mkJob(1, 0.2, 6.0, 1), // MEM dominant
	}
	placements := s.Place(jobs, openViews(cl))
	if len(placements) != 1 {
		t.Fatalf("got %d placements, want 1 packed entity: %+v", len(placements), placements)
	}
	p := placements[0]
	if len(p.Jobs) != 2 || len(p.Allocs) != 2 {
		t.Errorf("entity has %d jobs / %d allocs, want 2/2", len(p.Jobs), len(p.Allocs))
	}
	if !p.Opportunistic {
		t.Error("with unlocked accurate predictions the entity should ride unused resources")
	}
}

func TestCorpDisablePacking(t *testing.T) {
	cl := testCluster(t)
	s, err := New(Config{Scheme: CORP, Seed: 1, DisablePacking: true,
		Corp: predict.CorpConfig{Pth: 0.01, Epsilon: 0.9}}, cl)
	if err != nil {
		t.Fatal(err)
	}
	feedAndRefresh(s, cl, resource.New(2, 8, 90), 80)
	s.Refresh()
	jobs := []*job.Job{mkJob(0, 1.5, 0.5, 1), mkJob(1, 0.2, 6.0, 1)}
	placements := s.Place(jobs, openViews(cl))
	if len(placements) != 2 {
		t.Fatalf("unpacked CORP should place singly, got %d placements", len(placements))
	}
}

func TestCorpFallsBackToFreshWhenLocked(t *testing.T) {
	cl := testCluster(t)
	// Default Pth 0.95 with a cold predictor: everything locked.
	s, err := New(Config{Scheme: CORP, Seed: 1}, cl)
	if err != nil {
		t.Fatal(err)
	}
	for v := range cl.VMs {
		s.Observe(v, resource.New(2, 8, 90))
	}
	s.Refresh()
	placements := s.Place([]*job.Job{mkJob(0, 1, 1, 1)}, openViews(cl))
	if len(placements) != 1 {
		t.Fatalf("got %d placements", len(placements))
	}
	if placements[0].Opportunistic {
		t.Error("locked predictions must not back opportunistic placement")
	}
}

func TestCorpAllocIsMeanBased(t *testing.T) {
	cl := testCluster(t)
	s, err := New(Config{Scheme: CORP, Seed: 1}, cl)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.(*corpScheduler)
	j := &job.Job{
		ID: 0, Duration: 2, SLOFactor: 2,
		Usage: []resource.Vector{
			resource.New(1, 1, 1),
			resource.New(3, 1, 1), // mean CPU 2, peak 3
		},
		Request: resource.New(3, 1, 1),
	}
	alloc := cs.alloc(j)
	want := 2 * 1.15
	if alloc.At(resource.CPU) != want {
		t.Errorf("CORP alloc CPU = %v, want mean×margin = %v", alloc.At(resource.CPU), want)
	}
	// Never above peak.
	flat := mkJob(1, 2, 2, 2)
	if got := cs.alloc(flat).At(resource.CPU); got != 2 {
		t.Errorf("flat job alloc = %v, want capped at peak 2", got)
	}
}

func TestRandomSchedulerFallsBackToFresh(t *testing.T) {
	cl := testCluster(t)
	s, err := New(Config{Scheme: RCCR, Seed: 1}, cl)
	if err != nil {
		t.Fatal(err)
	}
	// Zero unused: nothing opportunistic to offer.
	feedAndRefresh(s, cl, resource.Vector{}, 30)
	placements := s.Place([]*job.Job{mkJob(0, 1, 1, 1)}, openViews(cl))
	if len(placements) != 1 {
		t.Fatalf("got %d placements", len(placements))
	}
	if placements[0].Opportunistic {
		t.Error("zero predicted unused must not be opportunistic")
	}
}

func TestRandomSchedulerUsesOppWhenAvailable(t *testing.T) {
	cl := testCluster(t)
	s, err := New(Config{Scheme: RCCR, Seed: 1}, cl)
	if err != nil {
		t.Fatal(err)
	}
	feedAndRefresh(s, cl, resource.New(3, 12, 150), 40)
	placements := s.Place([]*job.Job{mkJob(0, 1, 1, 1)}, openViews(cl))
	if len(placements) != 1 || !placements[0].Opportunistic {
		t.Errorf("RCCR should place opportunistically on ample predicted unused: %+v", placements)
	}
}

func TestCloudScaleAllocIncludesPadding(t *testing.T) {
	cl := testCluster(t)
	s, err := New(Config{Scheme: CloudScale, Seed: 1}, cl)
	if err != nil {
		t.Fatal(err)
	}
	feedAndRefresh(s, cl, resource.New(3, 12, 150), 40)
	placements := s.Place([]*job.Job{mkJob(0, 1, 1, 1)}, openViews(cl))
	if len(placements) != 1 {
		t.Fatal("no placement")
	}
	if got := placements[0].Allocs[0].At(resource.CPU); got != 1.35 {
		t.Errorf("CloudScale alloc = %v, want peak×1.35", got)
	}
}

func TestDRAPlacesFreshOnly(t *testing.T) {
	cl := testCluster(t)
	s, err := New(Config{Scheme: DRA, Seed: 1}, cl)
	if err != nil {
		t.Fatal(err)
	}
	feedAndRefresh(s, cl, resource.New(3, 12, 150), 40)
	placements := s.Place([]*job.Job{mkJob(0, 1, 1, 1)}, openViews(cl))
	if len(placements) != 1 {
		t.Fatal("no placement")
	}
	if placements[0].Opportunistic {
		t.Error("DRA must never place opportunistically")
	}
	if got := placements[0].Allocs[0].At(resource.CPU); got != 1.5 {
		t.Errorf("DRA alloc = %v, want peak×1.5 bulk", got)
	}
	// No fresh headroom anywhere → no placement.
	tight := make([]VMView, len(cl.VMs))
	none := s.Place([]*job.Job{mkJob(1, 1, 1, 1)}, tight)
	if len(none) != 0 {
		t.Errorf("DRA placed without headroom: %+v", none)
	}
}

func TestPlaceRespectsFreshHeadroom(t *testing.T) {
	cl := testCluster(t)
	for _, sc := range Schemes() {
		s, err := New(Config{Scheme: sc, Seed: 1}, cl)
		if err != nil {
			t.Fatal(err)
		}
		// Zero unused predictions + tiny fresh headroom on VM 2 only.
		feedAndRefresh(s, cl, resource.Vector{}, 30)
		views := make([]VMView, len(cl.VMs))
		views[2] = VMView{FreshAvailable: resource.New(8, 32, 360)}
		placements := s.Place([]*job.Job{mkJob(0, 1, 1, 1)}, views)
		for _, p := range placements {
			if p.VM != 2 {
				t.Errorf("%v placed on VM %d with zero headroom", sc, p.VM)
			}
			if p.Opportunistic {
				t.Errorf("%v placed opportunistically on zero predictions", sc)
			}
		}
	}
}

func TestPlaceSkipsDownVMs(t *testing.T) {
	// Every scheme must treat a Down view as nonexistent: no placements
	// when all VMs are down, placement resumes when they recover.
	for _, sc := range Schemes() {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			cl := testCluster(t)
			s, err := New(Config{Scheme: sc, Seed: 1,
				Corp: predict.CorpConfig{Pth: 0.01, Epsilon: 0.9}}, cl)
			if err != nil {
				t.Fatal(err)
			}
			feedAndRefresh(s, cl, resource.New(2, 8, 90), 80)
			jobs := []*job.Job{mkJob(0, 0.5, 0.5, 1)}
			down := make([]VMView, len(cl.VMs))
			for i := range down {
				down[i] = VMView{Down: true}
			}
			if placements := s.Place(jobs, down); len(placements) != 0 {
				t.Fatalf("placed %d entities on a fully-down cluster", len(placements))
			}
			// Only VM 1 survives: every placement must land there.
			oneUp := make([]VMView, len(cl.VMs))
			for i := range oneUp {
				oneUp[i] = VMView{Down: true}
			}
			oneUp[1] = VMView{FreshAvailable: cl.VMs[1].Capacity}
			placements := s.Place(jobs, oneUp)
			if len(placements) == 0 {
				t.Fatal("no placement despite one healthy VM")
			}
			for _, p := range placements {
				if p.VM != 1 {
					t.Errorf("placed on down VM %d", p.VM)
				}
			}
			// Full recovery restores normal placement.
			if placements := s.Place([]*job.Job{mkJob(1, 0.5, 0.5, 1)}, openViews(cl)); len(placements) == 0 {
				t.Error("no placement after recovery")
			}
		})
	}
}

func TestDrainOutcomesAggregatesVMs(t *testing.T) {
	cl := testCluster(t)
	s, err := New(Config{Scheme: RCCR, Seed: 1}, cl)
	if err != nil {
		t.Fatal(err)
	}
	// Refresh records a prediction per VM; maturing them takes a window.
	s.Refresh()
	for t2 := 0; t2 < 6; t2++ {
		for v := range cl.VMs {
			s.Observe(v, resource.New(1, 1, 1))
		}
	}
	outs := s.DrainOutcomes()
	want := len(cl.VMs) * resource.NumKinds
	if len(outs) != want {
		t.Errorf("drained %d outcomes, want %d", len(outs), want)
	}
	if len(s.DrainOutcomes()) != 0 {
		t.Error("second drain should be empty")
	}
}

func TestPlaceDoesNotOverfillPools(t *testing.T) {
	cl := testCluster(t)
	s, err := New(Config{Scheme: RCCR, Seed: 1}, cl)
	if err != nil {
		t.Fatal(err)
	}
	// Each VM predicts ~1.0 CPU unused; offer 20 jobs of 0.4 CPU each:
	// at most ~2 per VM should land opportunistically.
	feedAndRefresh(s, cl, resource.New(1, 4, 45), 40)
	var jobs []*job.Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, mkJob(i, 0.4, 0.4, 0.4))
	}
	views := make([]VMView, len(cl.VMs)) // no fresh headroom
	placements := s.Place(jobs, views)
	perVM := map[int]float64{}
	for _, p := range placements {
		if !p.Opportunistic {
			t.Fatalf("no fresh headroom, yet fresh placement: %+v", p)
		}
		perVM[p.VM] += p.Allocs[0].At(resource.CPU)
	}
	for vm, used := range perVM {
		if used > 1.2 { // predicted ≈ 1.0 with CI shave
			t.Errorf("VM %d oversubscribed beyond prediction: %v", vm, used)
		}
	}
}

func TestCorpPlacementStrategies(t *testing.T) {
	cl := testCluster(t)
	for _, name := range []string{"", "most-matched", "first-fit", "worst-fit", "random"} {
		s, err := New(Config{Scheme: CORP, Seed: 1, CorpPlacement: name,
			Corp: predict.CorpConfig{Pth: 0.01, Epsilon: 0.9}}, cl)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		feedAndRefresh(s, cl, resource.New(2, 8, 90), 80)
		placements := s.Place([]*job.Job{mkJob(0, 1, 1, 1)}, openViews(cl))
		if len(placements) != 1 {
			t.Errorf("%q: %d placements", name, len(placements))
		}
	}
	if _, err := New(Config{Scheme: CORP, CorpPlacement: "bogus"}, cl); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestCorpPackKThree(t *testing.T) {
	cl := testCluster(t)
	s, err := New(Config{Scheme: CORP, Seed: 1, CorpPackK: 3,
		Corp: predict.CorpConfig{Pth: 0.01, Epsilon: 0.9}}, cl)
	if err != nil {
		t.Fatal(err)
	}
	feedAndRefresh(s, cl, resource.New(3, 12, 150), 80)
	jobs := []*job.Job{
		mkJob(0, 1.5, 0.5, 1),  // CPU dominant
		mkJob(1, 0.2, 6.0, 1),  // MEM dominant
		mkJob(2, 0.2, 0.5, 40), // storage dominant
	}
	placements := s.Place(jobs, openViews(cl))
	if len(placements) != 1 {
		t.Fatalf("k=3 should pack a triple, got %d placements", len(placements))
	}
	if len(placements[0].Jobs) != 3 {
		t.Errorf("entity has %d jobs, want 3", len(placements[0].Jobs))
	}
}
