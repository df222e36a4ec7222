package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/resource"
)

func TestProfileString(t *testing.T) {
	if ProfileCluster.String() != "cluster" || ProfileEC2.String() != "ec2" {
		t.Error("profile names wrong")
	}
	if ProfileScale.String() != "scale" {
		t.Error("scale profile name wrong")
	}
	if Profile(9).String() != "Profile(9)" {
		t.Error("unknown profile name wrong")
	}
}

func TestNewScaleProfile(t *testing.T) {
	// Overriding NumPMs keeps the test cheap; the per-PM carve and fabric
	// must still match the cluster profile so figures are comparable.
	c, err := New(Config{Profile: ProfileScale, NumPMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.PMs) != 10 || len(c.VMs) != 40 {
		t.Errorf("PMs,VMs = %d,%d, want 10,40", len(c.PMs), len(c.VMs))
	}
	if want := resource.New(4, 16, 180); c.VMs[0].Capacity != want {
		t.Errorf("VM capacity = %v, want %v", c.VMs[0].Capacity, want)
	}
	if c.CommLatencyMicros != 50 {
		t.Errorf("CommLatencyMicros = %v, want 50 (LAN fabric)", c.CommLatencyMicros)
	}
	// Full-size defaults, checked without building the 20000-VM world.
	big, err := New(Config{Profile: ProfileScale, NumPMs: 5000, NumVMs: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.PMs) != 5000 || len(big.VMs) != 20000 {
		t.Errorf("default scale world = %d PMs, %d VMs, want 5000, 20000", len(big.PMs), len(big.VMs))
	}
}

func TestNewClusterDefaults(t *testing.T) {
	c, err := New(Config{Profile: ProfileCluster})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.PMs) != 50 {
		t.Errorf("PMs = %d, want 50", len(c.PMs))
	}
	if len(c.VMs) != 200 {
		t.Errorf("VMs = %d, want 200", len(c.VMs))
	}
	// 200 VMs over 50 PMs → 4 per PM → VM gets 4 cores, 16 GB, 180 GB.
	want := resource.New(4, 16, 180)
	if c.VMs[0].Capacity != want {
		t.Errorf("VM capacity = %v, want %v", c.VMs[0].Capacity, want)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewClusterTableIIRanges(t *testing.T) {
	// Table II: 30–50 servers, 100–400 VMs; all combinations must build.
	for _, pms := range []int{30, 40, 50} {
		for _, vms := range []int{100, 200, 400} {
			c, err := New(Config{Profile: ProfileCluster, NumPMs: pms, NumVMs: vms})
			if err != nil {
				t.Fatalf("pms=%d vms=%d: %v", pms, vms, err)
			}
			if len(c.VMs)%len(c.PMs) != 0 {
				t.Errorf("pms=%d vms=%d: VM count %d not multiple of PM count",
					pms, vms, len(c.VMs))
			}
		}
	}
}

func TestNewClusterRejectsFewVMs(t *testing.T) {
	if _, err := New(Config{Profile: ProfileCluster, NumPMs: 50, NumVMs: 10}); err == nil {
		t.Error("expected error when NumVMs < NumPMs")
	}
}

func TestNewEC2Defaults(t *testing.T) {
	c, err := New(Config{Profile: ProfileEC2})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.VMs) != 30 || len(c.PMs) != 30 {
		t.Errorf("EC2 nodes = %d PMs / %d VMs, want 30/30", len(c.PMs), len(c.VMs))
	}
	if c.VMs[3].Capacity != resource.New(2, 4, 720) {
		t.Errorf("EC2 VM capacity = %v", c.VMs[3].Capacity)
	}
	if c.CommLatencyMicros <= 50 {
		t.Error("EC2 comm latency should exceed the cluster's")
	}
}

func TestUnknownProfile(t *testing.T) {
	if _, err := New(Config{Profile: Profile(42)}); err == nil {
		t.Error("expected error for unknown profile")
	}
}

func TestVMReserveRelease(t *testing.T) {
	v := &VM{ID: 0, Capacity: resource.New(4, 16, 180)}
	if err := v.Reserve(resource.New(2, 8, 90)); err != nil {
		t.Fatal(err)
	}
	if v.Reserved() != resource.New(2, 8, 90) {
		t.Errorf("Reserved = %v", v.Reserved())
	}
	// Over-reserve fails with no side effect.
	before := v.Reserved()
	if err := v.Reserve(resource.New(3, 0, 0)); err == nil {
		t.Error("over-reserve should fail")
	}
	if v.Reserved() != before {
		t.Error("failed reserve mutated state")
	}
}

func TestVMRejectsNegativeAmounts(t *testing.T) {
	v := &VM{ID: 0, Capacity: resource.New(4, 4, 4)}
	if err := v.Reserve(resource.New(-1, 0, 0)); err == nil {
		t.Error("negative reserve should fail")
	}
	if err := v.Reserve(resource.New(math.NaN(), 0, 0)); err == nil {
		t.Error("NaN reserve should fail")
	}
	if !v.Reserved().IsZero() {
		t.Errorf("rejected reserves left Reserved = %v", v.Reserved())
	}
}

func TestMaxVMCapacityAndTotal(t *testing.T) {
	c := &Cluster{VMs: []*VM{
		{ID: 0, Capacity: resource.New(25, 1, 20)},
		{ID: 1, Capacity: resource.New(10, 2, 30)},
	}}
	if got := c.MaxVMCapacity(); got != resource.New(25, 2, 30) {
		t.Errorf("MaxVMCapacity = %v", got)
	}
}

func TestValidateCatchesBadTopology(t *testing.T) {
	c := &Cluster{
		PMs: []*PM{{ID: 0, Capacity: resource.New(4, 4, 4)}},
		VMs: []*VM{{ID: 0, PM: 3, Capacity: resource.New(1, 1, 1)}},
	}
	if err := c.Validate(); err == nil {
		t.Error("dangling PM reference should fail validation")
	}
	c.VMs[0].PM = 0
	c.VMs[0].Capacity = resource.New(100, 1, 1)
	if err := c.Validate(); err == nil {
		t.Error("PM oversubscription should fail validation")
	}
}

func TestValidateCatchesMisindexedIDs(t *testing.T) {
	c := &Cluster{
		PMs: []*PM{{ID: 0, Capacity: resource.New(4, 4, 4)}},
		VMs: []*VM{{ID: 7, PM: 0, Capacity: resource.New(1, 1, 1)}},
	}
	if err := c.Validate(); err == nil {
		t.Error("misindexed VM ID should fail validation")
	}
}

// Property: whatever sequence of reservations is attempted, the reserved
// amount never exceeds Capacity and never goes negative.
func TestQuickVMAccountingInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		v := &VM{ID: 0, Capacity: resource.New(8, 8, 8)}
		for _, op := range ops {
			amt := float64(op%5) * 0.7
			_ = v.Reserve(resource.New(amt, amt, amt)) // may fail; fine
			if !v.Reserved().FitsIn(v.Capacity) || !v.Reserved().NonNegative() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeterogeneousCluster(t *testing.T) {
	c, err := New(Config{Profile: ProfileCluster, NumPMs: 10, NumVMs: 40, Heterogeneous: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("heterogeneous cluster invalid: %v", err)
	}
	// Capacities must actually differ.
	sizes := map[resource.Vector]int{}
	for _, vm := range c.VMs {
		sizes[vm.Capacity]++
	}
	if len(sizes) < 2 {
		t.Errorf("expected multiple VM sizes, got %v", sizes)
	}
	// Per-PM totals must equal the PM capacity.
	for _, pm := range c.PMs {
		var total resource.Vector
		for _, vi := range pm.VMs {
			total = total.Add(c.VMs[vi].Capacity)
		}
		if !total.FitsIn(pm.Capacity) || !pm.Capacity.FitsIn(total) {
			t.Errorf("PM %d VM capacities sum to %v, want %v", pm.ID, total, pm.Capacity)
		}
	}
	// C' reflects the largest VM.
	max := c.MaxVMCapacity()
	even, err := New(Config{Profile: ProfileCluster, NumPMs: 10, NumVMs: 40})
	if err != nil {
		t.Fatal(err)
	}
	if max.At(resource.CPU) <= even.MaxVMCapacity().At(resource.CPU) {
		t.Errorf("heterogeneous C' CPU %v should exceed the even split", max.At(resource.CPU))
	}
}

func TestHeterogeneousFallbackSmallGroups(t *testing.T) {
	// perPM < 4 cannot host the 2× pattern; capacities stay even.
	c, err := New(Config{Profile: ProfileCluster, NumPMs: 10, NumVMs: 20, Heterogeneous: true})
	if err != nil {
		t.Fatal(err)
	}
	first := c.VMs[0].Capacity
	for _, vm := range c.VMs {
		if vm.Capacity != first {
			t.Fatalf("expected even capacities with perPM < 4")
		}
	}
}
