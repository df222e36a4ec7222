// Package cluster models the physical substrate of the paper's two
// testbeds: physical machines (PMs) whose resources are carved into virtual
// machines (VMs), with capacity accounting for reserved allocations.
//
// Profiles mirror Section IV of the paper:
//
//   - Cluster: 50 nodes of Clemson's Palmetto cluster (HP SL230, dual
//     E5-2665 → 16 cores, 64 GB memory), each node a PM, logical disks as
//     VMs; 1 GB/s bandwidth and 720 GB disk per server.
//   - EC2: 30 Amazon EC2 nodes (HP ProLiant ML110 G5 class, 2660 MIPS,
//     4 GB memory), each node simulated as one VM, with higher
//     communication overhead.
package cluster

import (
	"fmt"

	"repro/internal/resource"
)

// PM is a physical machine hosting VMs.
type PM struct {
	ID       int
	Capacity resource.Vector
	VMs      []int // indices into the cluster's VM list
}

// VM is a virtual machine with multi-resource capacity C_ij and an account
// of the long-standing tenant reservations carved from it. Short-lived
// grants are the ledgers of their consumers (internal/sim, internal/core).
type VM struct {
	ID       int
	PM       int
	Capacity resource.Vector

	reserved resource.Vector
}

// Reserved returns the currently reserved amount.
func (v *VM) Reserved() resource.Vector { return v.reserved }

// Reserve claims amount from the VM's reserved pool. It fails without side
// effects when the VM lacks headroom.
func (v *VM) Reserve(amount resource.Vector) error {
	if !amount.NonNegative() {
		return fmt.Errorf("cluster: negative or NaN reserve %v on VM %d", amount, v.ID)
	}
	if !v.reserved.Add(amount).FitsIn(v.Capacity) {
		return fmt.Errorf("cluster: VM %d cannot reserve %v (reserved %v of %v)",
			v.ID, amount, v.reserved, v.Capacity)
	}
	v.reserved = v.reserved.Add(amount)
	return nil
}

// Cluster is a set of PMs and the VMs carved from them.
type Cluster struct {
	PMs []*PM
	VMs []*VM

	// CommLatencyMicros is the simulated communication latency added per
	// allocation operation, in microseconds. EC2 sets this higher than the
	// dedicated cluster (Fig. 14 vs Fig. 10).
	CommLatencyMicros float64
}

// MaxVMCapacity returns C′, the per-kind maximum capacity over all VMs
// (paper Eq. 22).
func (c *Cluster) MaxVMCapacity() resource.Vector {
	caps := make([]resource.Vector, len(c.VMs))
	for i, v := range c.VMs {
		caps[i] = v.Capacity
	}
	return resource.MaxAcross(caps)
}

// Validate checks structural invariants: every VM references a valid PM,
// per-PM VM capacity sums fit in the PM, and all reservations fit their VM.
func (c *Cluster) Validate() error {
	perPM := make([]resource.Vector, len(c.PMs))
	for i, v := range c.VMs {
		if v.ID != i {
			return fmt.Errorf("cluster: VM at index %d has ID %d", i, v.ID)
		}
		if v.PM < 0 || v.PM >= len(c.PMs) {
			return fmt.Errorf("cluster: VM %d references PM %d of %d", v.ID, v.PM, len(c.PMs))
		}
		perPM[v.PM] = perPM[v.PM].Add(v.Capacity)
		if !v.reserved.FitsIn(v.Capacity) {
			return fmt.Errorf("cluster: VM %d over-reserved: %v of %v", v.ID, v.reserved, v.Capacity)
		}
	}
	for i, pm := range c.PMs {
		if pm.ID != i {
			return fmt.Errorf("cluster: PM at index %d has ID %d", i, pm.ID)
		}
		if !perPM[i].FitsIn(pm.Capacity) {
			return fmt.Errorf("cluster: PM %d oversubscribed: VMs need %v of %v", i, perPM[i], pm.Capacity)
		}
	}
	return nil
}

// Profile selects one of the paper's testbeds.
type Profile int

// Testbed profiles from Section IV.
const (
	// ProfileCluster is the 50-node Palmetto deployment.
	ProfileCluster Profile = iota
	// ProfileEC2 is the 30-node Amazon EC2 deployment.
	ProfileEC2
	// ProfileScale is the synthetic at-scale testbed: the Palmetto node
	// model scaled two orders of magnitude out to 5000 PMs carved into
	// 20000 VMs, for exercising the event-driven simulator core far past
	// the paper's 50-node evaluation (ROADMAP: production-scale worlds).
	ProfileScale
)

// String names the profile.
func (p Profile) String() string {
	switch p {
	case ProfileCluster:
		return "cluster"
	case ProfileEC2:
		return "ec2"
	case ProfileScale:
		return "scale"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// Config parameterizes cluster construction.
type Config struct {
	Profile Profile
	// NumPMs overrides the profile default when > 0 (paper Table II:
	// 30–50 servers).
	NumPMs int
	// NumVMs overrides the profile default when > 0 (paper Table II:
	// 100–400 VMs). Must be ≥ NumPMs and is rounded to a multiple of
	// NumPMs so every PM hosts the same number of equal VMs.
	NumVMs int
	// Heterogeneous carves each cluster-profile PM into VMs of unequal
	// sizes (a 1/2 + 1/4 + 1/4 split pattern per group of equal VMs),
	// exercising the C′ normalization of Eq. 22 — "logical disks as
	// VMs" in the paper's testbed were not uniform. Ignored on EC2.
	Heterogeneous bool
}

// New builds a cluster for the given configuration.
//
// Cluster profile: each PM models an HP SL230 (16 cores, 64 GB memory,
// 720 GB disk); VMs split the PM evenly. EC2 profile: each node is one VM
// modeled on an ML110 G5 (≈2.66 GHz single-ish core budget normalized to
// 2 cores, 4 GB memory, 720 GB disk) hosted on a pass-through PM.
func New(cfg Config) (*Cluster, error) {
	switch cfg.Profile {
	case ProfileCluster:
		return newCluster(cfg)
	case ProfileEC2:
		return newEC2(cfg)
	case ProfileScale:
		// Same SL230 node model and LAN fabric as the cluster profile,
		// defaulted to 5000 PMs × 4 VMs each (the cluster profile's
		// per-PM carve) so per-VM capacities match across profiles.
		if cfg.NumPMs <= 0 {
			cfg.NumPMs = 5000
		}
		if cfg.NumVMs <= 0 {
			cfg.NumVMs = 4 * cfg.NumPMs
		}
		return newCluster(cfg)
	default:
		return nil, fmt.Errorf("cluster: unknown profile %v", cfg.Profile)
	}
}

func newCluster(cfg Config) (*Cluster, error) {
	numPMs := cfg.NumPMs
	if numPMs <= 0 {
		numPMs = 50
	}
	numVMs := cfg.NumVMs
	if numVMs <= 0 {
		numVMs = 200
	}
	if numVMs < numPMs {
		return nil, fmt.Errorf("cluster: NumVMs %d < NumPMs %d", numVMs, numPMs)
	}
	perPM := numVMs / numPMs
	numVMs = perPM * numPMs
	pmCap := resource.New(16, 64, 720) // SL230: 16 cores, 64 GB, 720 GB
	vmCap := pmCap.Scale(1 / float64(perPM))

	c := newSlabs(numPMs, numVMs)
	c.CommLatencyMicros = 50 // LAN-class fabric
	for p, pm := range c.PMs {
		pm.ID, pm.Capacity = p, pmCap
	}
	for i := range c.VMs {
		pm := i % numPMs
		cap := vmCap
		if cfg.Heterogeneous {
			// Within each run of equal shares, reshape capacity
			// 1/2 : 1/4 : 1/4 in a repeating pattern while keeping the
			// per-PM sum fixed (groups of 4 equal VMs become
			// 2×, 0.5×, 0.5×, 1× of the even split).
			switch (i / numPMs) % 4 {
			case 0:
				cap = vmCap.Scale(2)
			case 1, 2:
				cap = vmCap.Scale(0.5)
			}
			// Case 3 keeps the even split. PMs with fewer than 4 VMs
			// would oversubscribe with the 2× head, so only reshape
			// when a full pattern fits.
			if perPM < 4 {
				cap = vmCap
			}
		}
		*c.VMs[i] = VM{ID: i, PM: pm, Capacity: cap}
		c.PMs[pm].VMs = append(c.PMs[pm].VMs, i)
	}
	return c, c.Validate()
}

// newSlabs returns a cluster whose numPMs PMs and numVMs VMs are carved from
// one PM slab and one VM slab, with the PMs' VM lists carved from one index
// slab — empty, each with room for numVMs/numPMs entries, so appending a
// PM's VMs writes in place: a constant number of allocations at any fleet
// size.
func newSlabs(numPMs, numVMs int) *Cluster {
	pms := make([]PM, numPMs)
	vms := make([]VM, numVMs)
	idx := make([]int, numVMs)
	per := numVMs / numPMs
	c := &Cluster{PMs: make([]*PM, numPMs), VMs: make([]*VM, numVMs)}
	for p := range pms {
		pms[p].VMs = idx[p*per : p*per : (p+1)*per]
		c.PMs[p] = &pms[p]
	}
	for i := range vms {
		c.VMs[i] = &vms[i]
	}
	return c
}

func newEC2(cfg Config) (*Cluster, error) {
	numNodes := cfg.NumPMs
	if numNodes <= 0 {
		numNodes = 30
	}
	// "each node is simulated as a VM": one pass-through PM per VM.
	vmCap := resource.New(2, 4, 720) // ML110 G5-class: 2 cores, 4 GB, 720 GB
	c := newSlabs(numNodes, numNodes)
	c.CommLatencyMicros = 800 // wide-area RTT budget (Fig. 14 ≫ Fig. 10)
	for i := range c.VMs {
		c.PMs[i].ID, c.PMs[i].Capacity = i, vmCap
		c.PMs[i].VMs = append(c.PMs[i].VMs, i)
		*c.VMs[i] = VM{ID: i, PM: i, Capacity: vmCap}
	}
	return c, c.Validate()
}
