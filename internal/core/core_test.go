package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/predict"
	"repro/internal/resource"
)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{NumPMs: 2, NumVMs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Residents reserve 60% of each VM so opportunistic pools exist.
	for _, vm := range cl.VMs {
		if err := vm.Reserve(vm.Capacity.Scale(0.6)); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

func newController(t *testing.T, cl *cluster.Cluster) *Controller {
	t.Helper()
	c, err := NewController(cl, Config{
		Seed:      1,
		Predictor: predict.CorpConfig{Pth: 0.05, Epsilon: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func steadyUnused(cl *cluster.Cluster) []resource.Vector {
	unused := make([]resource.Vector, len(cl.VMs))
	for v := range unused {
		unused[v] = resource.New(1.5, 6, 60)
	}
	return unused
}

func mkJob(id int, cpu, mem, sto float64) *job.Job {
	return &job.Job{
		ID: job.ID(id), Duration: 3, SLOFactor: 2,
		Usage: []resource.Vector{
			resource.New(cpu, mem, sto),
			resource.New(cpu, mem, sto),
			resource.New(cpu, mem, sto),
		},
		Request: resource.New(cpu, mem, sto),
	}
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(nil, Config{}); err == nil {
		t.Error("nil cluster should fail")
	}
	if _, err := NewController(&cluster.Cluster{}, Config{}); err == nil {
		t.Error("empty cluster should fail")
	}
	c := newController(t, testCluster(t))
	if c.Window() != 6 {
		t.Errorf("Window = %d", c.Window())
	}
}

func TestObserveSlotValidatesInput(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	if _, err := c.ObserveSlot(nil); err == nil {
		t.Error("wrong vector count should fail")
	}
	for _, x := range []float64{-1, math.NaN(), math.Inf(1)} {
		bad := steadyUnused(cl)
		bad[2] = resource.New(x, 0, 0)
		_, err := c.ObserveSlot(bad)
		if err == nil || !strings.Contains(err.Error(), "VM 2") {
			t.Errorf("unused %v: err = %v, want one naming VM 2", bad[2], err)
		}
		if c.Slot() != 0 {
			t.Errorf("unused %v: rejected slot advanced the counter to %d", bad[2], c.Slot())
		}
	}
}

// TestPretrainValidates pins Pretrain's input checks: an unknown VM, a
// history holding a value ObserveSlot would reject, and any call after the
// first ObserveSlot all fail.
func TestPretrainValidates(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	good := steadyUnused(cl)
	if err := c.Pretrain(len(cl.VMs), good); err == nil {
		t.Error("Pretrain accepted an unknown VM")
	}
	if err := c.Pretrain(0, []resource.Vector{good[0], resource.New(math.NaN(), 0, 0)}); err == nil {
		t.Error("Pretrain accepted a NaN in the history")
	}
	if err := c.Pretrain(0, good); err != nil {
		t.Fatal(err)
	}
	warm(t, c, cl, 1)
	if err := c.Pretrain(0, good); err == nil {
		t.Error("Pretrain accepted history after the first ObserveSlot")
	}
}

// warm advances the controller through n slots of steady telemetry.
func warm(t *testing.T, c *Controller, cl *cluster.Cluster, n int) []Grant {
	t.Helper()
	var grants []Grant
	for i := 0; i < n; i++ {
		g, err := c.ObserveSlot(steadyUnused(cl))
		if err != nil {
			t.Fatal(err)
		}
		grants = append(grants, g...)
	}
	return grants
}

func TestSubmitAndPlaceLifecycle(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	warm(t, c, cl, 80)

	jobs := []*job.Job{mkJob(1, 0.8, 1, 5), mkJob(2, 0.1, 4, 5)}
	if err := c.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	if c.Pending() != 2 {
		t.Fatalf("Pending = %d", c.Pending())
	}
	grants := warm(t, c, cl, 6)
	if len(grants) != 2 {
		t.Fatalf("got %d grants: %+v", len(grants), grants)
	}
	if c.Pending() != 0 || c.Active() != 2 {
		t.Errorf("pending=%d active=%d", c.Pending(), c.Active())
	}
	for _, g := range grants {
		if !g.Alloc.NonNegative() || g.Alloc.IsZero() {
			t.Errorf("grant alloc %v invalid", g.Alloc)
		}
		if g.VM < 0 || g.VM >= len(cl.VMs) {
			t.Errorf("grant VM %d out of range", g.VM)
		}
	}
	// Ledgers reflect the grants.
	var total resource.Vector
	for v := range cl.VMs {
		total = total.Add(c.OppInUse(v)).Add(c.FreshInUse(v))
	}
	if total.IsZero() {
		t.Error("ledgers empty after grants")
	}
	// Release both; ledgers drain.
	for _, g := range grants {
		if err := c.Release(g.Job); err != nil {
			t.Fatal(err)
		}
	}
	for v := range cl.VMs {
		if !c.OppInUse(v).IsZero() || !c.FreshInUse(v).IsZero() {
			t.Errorf("VM %d ledger not drained", v)
		}
	}
	if c.Active() != 0 {
		t.Errorf("Active = %d after release", c.Active())
	}
}

func TestSubmitRejectsDuplicates(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	j := mkJob(1, 0.5, 1, 1)
	if err := c.Submit([]*job.Job{j}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit([]*job.Job{j}); err == nil {
		t.Error("duplicate pending submit should fail")
	}
	warm(t, c, cl, 80)
	if c.Active() != 1 {
		t.Fatalf("job not placed")
	}
	if err := c.Submit([]*job.Job{j}); err == nil {
		t.Error("duplicate active submit should fail")
	}
}

// TestSubmitIsAllOrNothing pins that a batch with any bad job queues none
// of its jobs, so the caller can fix the batch and submit it again.
func TestSubmitIsAllOrNothing(t *testing.T) {
	c := newController(t, testCluster(t))
	if err := c.Submit([]*job.Job{mkJob(1, 0.5, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	for name, batch := range map[string][]*job.Job{
		"pending duplicate":  {mkJob(2, 0.5, 1, 1), mkJob(1, 0.5, 1, 1)},
		"nil job":            {mkJob(2, 0.5, 1, 1), nil},
		"invalid spec":       {mkJob(2, 0.5, 1, 1), {ID: 3}},
		"duplicate in batch": {mkJob(2, 0.5, 1, 1), mkJob(2, 0.5, 1, 1)},
	} {
		if err := c.Submit(batch); err == nil {
			t.Errorf("%s: Submit accepted the batch", name)
		}
		if c.Pending() != 1 {
			t.Fatalf("%s: failed Submit left %d jobs pending, want 1", name, c.Pending())
		}
	}
	if err := c.Submit([]*job.Job{mkJob(2, 0.5, 1, 1), mkJob(3, 0.5, 1, 1)}); err != nil {
		t.Fatalf("resubmitting the good jobs: %v", err)
	}
	if c.Pending() != 3 {
		t.Errorf("Pending = %d, want 3", c.Pending())
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	c := newController(t, testCluster(t))
	if err := c.Submit([]*job.Job{{ID: 1}}); err == nil {
		t.Error("invalid spec should fail")
	}
}

func TestReleaseUnknownFails(t *testing.T) {
	c := newController(t, testCluster(t))
	if err := c.Release(99); err == nil {
		t.Error("releasing unknown job should fail")
	}
}

func TestCancelPending(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	j := mkJob(1, 100, 100, 100) // cannot ever place
	if err := c.Submit([]*job.Job{j}); err != nil {
		t.Fatal(err)
	}
	warm(t, c, cl, 12)
	if c.Pending() != 1 {
		t.Fatalf("oversized job should stay pending")
	}
	if err := c.Cancel(1); err != nil {
		t.Fatal(err)
	}
	if c.Pending() != 0 {
		t.Error("cancel did not drain queue")
	}
	if err := c.Cancel(1); err == nil {
		t.Error("double cancel should fail")
	}
}

func TestDrainOutcomesFlows(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	warm(t, c, cl, 30)
	if len(c.DrainOutcomes()) == 0 {
		t.Error("matured outcomes expected after warm slots")
	}
}

func TestOpportunisticGrantsArriveWhenUnlocked(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	// Long steady warmup with a loose gate: predictions unlock.
	warm(t, c, cl, 90)
	if err := c.Submit([]*job.Job{mkJob(1, 0.5, 1, 5)}); err != nil {
		t.Fatal(err)
	}
	grants := warm(t, c, cl, 6)
	if len(grants) != 1 {
		t.Fatalf("got %d grants", len(grants))
	}
	if !grants[0].Opportunistic {
		t.Error("steady telemetry with loose gate should yield opportunistic grants")
	}
}

func TestVMDownEvictsAndRequeues(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	warm(t, c, cl, 80)
	jobs := []*job.Job{mkJob(1, 0.8, 1, 5), mkJob(2, 0.1, 4, 5)}
	if err := c.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	grants := warm(t, c, cl, 6)
	if len(grants) != 2 {
		t.Fatalf("got %d grants", len(grants))
	}
	victim := grants[0].VM
	var want []job.ID
	for _, g := range grants {
		if g.VM == victim {
			want = append(want, g.Job)
		}
	}
	lost, err := c.VMDown(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != len(want) {
		t.Fatalf("VMDown evicted %v, want %d jobs", lost, len(want))
	}
	for i := 1; i < len(lost); i++ {
		if lost[i-1] >= lost[i] {
			t.Errorf("evicted IDs not ascending: %v", lost)
		}
	}
	if !c.VMIsDown(victim) {
		t.Error("VMIsDown false after VMDown")
	}
	if !c.OppInUse(victim).IsZero() || !c.FreshInUse(victim).IsZero() {
		t.Error("dead VM's ledgers not cleared")
	}
	if c.Pending() != len(lost) {
		t.Errorf("Pending = %d, want %d requeued jobs", c.Pending(), len(lost))
	}
	// Idempotent: a second VMDown is a no-op.
	if again, err := c.VMDown(victim); err != nil || again != nil {
		t.Errorf("second VMDown = %v, %v", again, err)
	}
	// Requeued jobs place again, and never on the dead VM.
	regrants := warm(t, c, cl, 12)
	for _, g := range regrants {
		if g.VM == victim {
			t.Errorf("job %d placed on down VM %d", g.Job, victim)
		}
	}
	if c.Pending() != 0 {
		t.Errorf("Pending = %d after replacement rounds", c.Pending())
	}
	// Recovery re-admits the VM.
	if err := c.VMUp(victim); err != nil {
		t.Fatal(err)
	}
	if c.VMIsDown(victim) {
		t.Error("VMIsDown true after VMUp")
	}
	if _, err := c.VMDown(99); err == nil {
		t.Error("VMDown out of range should fail")
	}
	if err := c.VMUp(-1); err == nil {
		t.Error("VMUp out of range should fail")
	}
}

func TestGrantsSnapshotAndAdjustment(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	warm(t, c, cl, 80)
	// A job whose demand rises sharply mid-life: the per-window
	// adjustment should grow its grant.
	j := &job.Job{
		ID: 5, Duration: 24, SLOFactor: 3,
		Usage: func() []resource.Vector {
			var u []resource.Vector
			for i := 0; i < 24; i++ {
				v := 0.3
				if i >= 6 {
					v = 1.2
				}
				u = append(u, resource.New(v, v, v))
			}
			return u
		}(),
		Request: resource.New(1.2, 1.2, 1.2),
	}
	if err := c.Submit([]*job.Job{j}); err != nil {
		t.Fatal(err)
	}
	grants := warm(t, c, cl, 6)
	if len(grants) != 1 {
		t.Fatalf("got %d grants", len(grants))
	}
	initial := grants[0].Alloc.At(resource.CPU)
	// Advance past the demand step and at least one refresh.
	warm(t, c, cl, 13)
	snap := c.Grants()
	g, ok := snap[5]
	if !ok {
		t.Fatal("grant missing from snapshot")
	}
	if g.Alloc.At(resource.CPU) <= initial {
		t.Errorf("grant did not grow with demand: %v → %v", initial, g.Alloc.At(resource.CPU))
	}
	// Snapshot is a copy: mutating it must not affect the controller.
	g.Alloc = resource.New(999, 999, 999)
	snap[5] = g
	if c.Grants()[5].Alloc.At(resource.CPU) > 900 {
		t.Error("snapshot mutation leaked into the controller")
	}
}

// TestResizeReadsDemandSinceGrant pins the demand index of the per-window
// resize. A job granted by slot 0's ObserveSlot has run slots 0 … 5 when
// slot 6 refreshes, so it is sized for usage[6], the simulator's current
// demand after six executed slots. usage[k] carries 0.1·(k+1) CPU; its
// mean is 0.65 and its peak 1.2, so the floor is 0.65 × 0.8 × 1.15 = 0.598
// and the resize lands on 0.7 × 1.15 = 0.805 CPU (1.15 is the default
// margin). Reading usage[5] would give 0.6 × 1.15 = 0.69.
func TestResizeReadsDemandSinceGrant(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	usage := make([]resource.Vector, 12)
	for k := range usage {
		usage[k] = resource.New(0.1*float64(k+1), 1, 1)
	}
	j := &job.Job{ID: 1, Duration: len(usage), SLOFactor: 2, Usage: usage, Request: resource.MaxAcross(usage)}
	if err := c.Submit([]*job.Job{j}); err != nil {
		t.Fatal(err)
	}
	grants := warm(t, c, cl, 1)
	if len(grants) != 1 || grants[0].Opportunistic {
		t.Fatalf("slot 0 issued %+v, want one fresh grant", grants)
	}
	warm(t, c, cl, c.Window())
	if got := c.Grants()[1].Alloc.At(resource.CPU); math.Abs(got-0.805) > 1e-12 {
		t.Errorf("resized CPU = %v, want 0.805 (usage[6] × 1.15)", got)
	}
}

// TestAdjustGrowsEarliestGrantFirst pins the per-window resize order: two
// identical fresh grants on one VM bump their CPU demand from 5 % to 25 %
// of capacity around the same refresh, past the VM's headroom, and the one
// issued first must win the headroom in every fresh controller. Job 2 is
// granted at slot 0 and job 1 at slot 1, so ascending job ID, or ranging
// over a map, would not give this order.
func TestAdjustGrowsEarliestGrantFirst(t *testing.T) {
	var want float64
	for run := 0; run < 40; run++ {
		cl, err := cluster.New(cluster.Config{NumPMs: 1, NumVMs: 1})
		if err != nil {
			t.Fatal(err)
		}
		vm := cl.VMs[0]
		if err := vm.Reserve(vm.Capacity.Scale(0.6)); err != nil {
			t.Fatal(err)
		}
		c := newController(t, cl)
		stepJob := func(id int) *job.Job {
			usage := make([]resource.Vector, 12)
			for i := range usage {
				usage[i] = vm.Capacity.Scale(0.05)
				if i >= c.Window()-2 && i <= c.Window()+1 {
					usage[i][resource.CPU] *= 5
				}
			}
			return &job.Job{ID: job.ID(id), Duration: len(usage), SLOFactor: 2, Usage: usage, Request: resource.MaxAcross(usage)}
		}
		// Slot 0 grants job 2 and slot 1 job 1, both on fresh headroom; the
		// refresh at slot Window resizes them to demand indices Window and
		// Window-1, both inside the bump over Window-2 … Window+1.
		var fresh int
		for slot := 0; slot <= c.Window(); slot++ {
			if slot < 2 {
				if err := c.Submit([]*job.Job{stepJob(2 - slot)}); err != nil {
					t.Fatal(err)
				}
			}
			grants, err := c.ObserveSlot([]resource.Vector{vm.Capacity.Scale(0.3)})
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range grants {
				if !g.Opportunistic {
					fresh++
				}
			}
		}
		if fresh != 2 {
			t.Fatalf("run %d: %d fresh grants, want 2", run, fresh)
		}
		g := c.Grants()
		one, two := g[1].Alloc.At(resource.CPU), g[2].Alloc.At(resource.CPU)
		if two <= one {
			t.Fatalf("run %d: job 1 took the headroom from the earlier grant: CPU %v (job 1) vs %v (job 2)", run, one, two)
		}
		if run == 0 {
			want = two
		} else if two != want {
			t.Fatalf("run %d: job 2's grant %v, want %v as in run 0", run, two, want)
		}
	}
}
