// Package core assembles the paper's primary contribution — the CORP
// cooperative opportunistic resource-provisioning controller — for live
// use. Where package sim drives the same machinery against synthetic
// workloads, core.Controller is the embeddable control loop a cluster
// manager would run: feed it per-VM unused-resource telemetry every slot,
// submit arriving short-lived jobs, and apply the grants it returns.
//
// The controller pipeline per Section III of the paper:
//
//  1. every slot, per-VM unused-resource telemetry trains the online DNN
//     (Eqs. 5–8) and updates the HMM observation stream;
//  2. every window of L slots, each VM's unused resources for the next
//     window are forecast, corrected for predicted peaks/valleys
//     (Eqs. 9–17), made conservative by the confidence interval
//     (Eqs. 18–19), and gated by Eq. 21;
//  3. pending jobs are packed into complementary entities (Section III-B)
//     and placed on the most-matched VM (Eq. 22), preferring unlocked
//     predicted-unused pools and falling back to unallocated headroom.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/predict"
	"repro/internal/resource"
	"repro/internal/scheduler"
)

// Config parameterizes a Controller.
type Config struct {
	// Predictor tunes the DNN+HMM prediction pipeline; the zero value
	// uses the paper's Table II defaults.
	Predictor predict.CorpConfig
	// DisablePacking turns complementary packing off.
	DisablePacking bool
	// AllocMargin sizes per-job allocations (mean demand × margin,
	// capped at the declared peak); zero defaults to 1.15.
	AllocMargin float64
	// Seed drives deterministic initialization.
	Seed int64
	// Workers switches on the per-kind training goroutines, at most 3:
	// above 1 the shared brain's resource kinds train concurrently on
	// every ObserveSlot; <= 1 runs serially. Grants are identical at any
	// count.
	Workers int
}

// Grant is one allocation decision, issued by ObserveSlot.
type Grant struct {
	Job           job.ID
	VM            int
	Alloc         resource.Vector
	Opportunistic bool
}

// Controller is the live CORP control loop. It is not safe for concurrent
// use; callers serialize ObserveSlot/Submit/Release.
//
// Its grant accounting is the simulator's: one scheduler.Pools per VM,
// charged at placement, returned at Release, emptied by VMDown. At the
// refresh of slot t every live grant is resized to the corrected amount
// for its job's demand at DemandAt(t − t0), where t0 is the slot whose
// ObserveSlot issued the grant: the job has run the t − t0 slots t0 … t−1.
// Grants are resized VM by VM in ascending index and, on one VM, in the
// order they were issued, so when fresh grants compete for a VM's headroom
// the earliest grows first.
type Controller struct {
	cl    *cluster.Cluster
	sched scheduler.Scheduler

	slot  int
	down  []bool
	pools []scheduler.Pools
	// live lists each VM's grants in the order they were issued; active
	// indexes the same records by job.
	live    [][]*grant
	active  map[job.ID]*grant
	pending []*job.Job
	views   []scheduler.VMView
}

// grant is one live grant with what resizing it needs: the job's spec and
// the slot that issued it.
type grant struct {
	Grant
	spec *job.Job
	slot int
}

// NewController builds a controller over the cluster.
func NewController(cl *cluster.Cluster, cfg Config) (*Controller, error) {
	if cl == nil || len(cl.VMs) == 0 {
		return nil, errors.New("core: cluster with at least one VM required")
	}
	sched, err := scheduler.New(scheduler.Config{
		Scheme:          scheduler.CORP,
		Corp:            cfg.Predictor,
		Seed:            cfg.Seed,
		DisablePacking:  cfg.DisablePacking,
		CorpAllocMargin: cfg.AllocMargin,
		Workers:         cfg.Workers,
	}, cl)
	if err != nil {
		return nil, err
	}
	n := len(cl.VMs)
	return &Controller{
		cl:     cl,
		sched:  sched,
		down:   make([]bool, n),
		pools:  make([]scheduler.Pools, n),
		live:   make([][]*grant, n),
		active: make(map[job.ID]*grant),
		views:  make([]scheduler.VMView, n),
	}, nil
}

// Window returns the prediction window L in slots.
func (c *Controller) Window() int { return c.sched.Window() }

// Slot returns how many slots have been observed.
func (c *Controller) Slot() int { return c.slot }

// checkUnused rejects telemetry that is not finite and non-negative.
func checkUnused(v int, u resource.Vector) error {
	if !u.NonNegative() || slices.Contains(u[:], math.Inf(1)) {
		return fmt.Errorf("core: unused %v on VM %d is not finite and non-negative", u, v)
	}
	return nil
}

// Pretrain feeds VM v's historical unused series, oldest first, to the
// predictors before the live stream starts: the paper trains its DNN on
// trace history before deployment. Observations only, so no forecast is
// made and no prediction error recorded. It fails once ObserveSlot has
// run, and on any value ObserveSlot would reject (feeding none of them).
func (c *Controller) Pretrain(v int, history []resource.Vector) error {
	if v < 0 || v >= len(c.cl.VMs) {
		return fmt.Errorf("core: no VM %d", v)
	}
	if c.slot > 0 {
		return errors.New("core: Pretrain after the first ObserveSlot")
	}
	for _, u := range history {
		if err := checkUnused(v, u); err != nil {
			return err
		}
	}
	for _, u := range history {
		c.sched.Observe(v, u)
	}
	return nil
}

// ObserveSlot advances one time slot: unused[v] is the measured
// allocated-but-unused vector of VM v this slot, finite and non-negative
// (a slot with any other value is rejected whole). Forecasts refresh and
// live grants are resized every Window-th call, and any pending jobs are
// then offered for placement. It returns the grants issued this slot (nil
// when none is).
func (c *Controller) ObserveSlot(unused []resource.Vector) ([]Grant, error) {
	if len(unused) != len(c.cl.VMs) {
		return nil, fmt.Errorf("core: %d unused vectors for %d VMs", len(unused), len(c.cl.VMs))
	}
	for v, u := range unused {
		if err := checkUnused(v, u); err != nil {
			return nil, err
		}
	}
	// One serial pass updates the per-VM predictors, then the brain's
	// kinds train (concurrently above Workers 1); down VMs produce no
	// telemetry and their predictor state stays frozen until recovery.
	c.sched.ObserveAll(unused, c.down)
	t := c.slot
	c.slot++
	if t%c.sched.Window() == 0 {
		c.sched.Refresh()
		c.resize(t)
	}
	if len(c.pending) == 0 {
		return nil, nil
	}
	return c.place(t), nil
}

// guaranteed is what VM v's capacity leaves short jobs: capacity minus the
// residents' reservation.
func (c *Controller) guaranteed(v int) resource.Vector {
	vm := c.cl.VMs[v]
	return vm.Capacity.Sub(vm.Reserved())
}

// resize re-sizes live grants to their jobs' demand at slot t when the
// scheme supports dynamic adjustment (CORP's "dynamically allocates the
// corrected amount"), in the order the Controller doc states. Callers
// observe the new sizes via Grants.
func (c *Controller) resize(t int) {
	adj, ok := c.sched.(scheduler.Adjuster)
	if !ok {
		return
	}
	for v, grants := range c.live {
		for _, g := range grants {
			want, changed := adj.AdjustAlloc(g.spec, g.spec.DemandAt(t-g.slot))
			if changed {
				g.Alloc = c.pools[v].Resize(g.Alloc, want, g.Opportunistic, c.guaranteed(v))
			}
		}
	}
}

// Grants returns a snapshot of the live grants keyed by job ID.
func (c *Controller) Grants() map[job.ID]Grant {
	out := make(map[job.ID]Grant, len(c.active))
	for id, g := range c.active {
		out[id] = g.Grant
	}
	return out
}

// Submit queues jobs for placement; grants are issued on this or
// subsequent ObserveSlot calls. Jobs must be valid and have unique IDs
// among active and pending work and within the batch. The batch is
// all-or-nothing: on error nothing is queued.
func (c *Controller) Submit(jobs []*job.Job) error {
	batch := make(map[job.ID]bool, len(jobs))
	for i, j := range jobs {
		if j == nil {
			return fmt.Errorf("core: job %d of the batch is nil", i)
		}
		if err := j.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if c.active[j.ID] != nil {
			return fmt.Errorf("core: job %d already active", j.ID)
		}
		if batch[j.ID] {
			return fmt.Errorf("core: job %d twice in the batch", j.ID)
		}
		batch[j.ID] = true
	}
	for _, j := range c.pending {
		if batch[j.ID] {
			return fmt.Errorf("core: job %d already pending", j.ID)
		}
	}
	c.pending = append(c.pending, jobs...)
	return nil
}

// Pending returns the number of jobs queued for placement.
func (c *Controller) Pending() int { return len(c.pending) }

// Active returns the number of jobs with live grants.
func (c *Controller) Active() int { return len(c.active) }

// place runs slot t's placement round over the pending queue and returns
// the grants it issued.
func (c *Controller) place(t int) []Grant {
	for v := range c.views {
		c.views[v] = c.pools[v].View(c.guaranteed(v), c.down[v])
	}
	placements := c.sched.Place(c.pending, c.views)
	if len(placements) == 0 {
		return nil
	}
	var grants []Grant
	for _, p := range placements {
		for i, spec := range p.Jobs {
			g := &grant{Grant{Job: spec.ID, VM: p.VM, Alloc: p.Allocs[i], Opportunistic: p.Opportunistic}, spec, t}
			c.pools[p.VM].Charge(g.Alloc, g.Opportunistic)
			c.live[p.VM] = append(c.live[p.VM], g)
			c.active[g.Job] = g
			grants = append(grants, g.Grant)
		}
	}
	c.pending = slices.DeleteFunc(c.pending, func(j *job.Job) bool { return c.active[j.ID] != nil })
	return grants
}

// Release returns a finished job's grant to its pool. Releasing an unknown
// job is an error so double-releases surface instead of corrupting the
// ledgers.
func (c *Controller) Release(id job.ID) error {
	g := c.active[id]
	if g == nil {
		return fmt.Errorf("core: job %d has no active grant", id)
	}
	c.pools[g.VM].Return(g.Alloc, g.Opportunistic)
	c.live[g.VM] = slices.DeleteFunc(c.live[g.VM], func(x *grant) bool { return x == g })
	delete(c.active, id)
	return nil
}

// Cancel removes a still-pending job from the queue.
func (c *Controller) Cancel(id job.ID) error {
	n := len(c.pending)
	if c.pending = slices.DeleteFunc(c.pending, func(j *job.Job) bool { return j.ID == id }); len(c.pending) == n {
		return fmt.Errorf("core: job %d is not pending", id)
	}
	return nil
}

// VMDown marks VM v failed: it stops receiving telemetry and placements,
// and every live grant on it is revoked with its job requeued for
// placement elsewhere. The requeued job IDs are returned in ascending
// order so callers can restart the work deterministically.
func (c *Controller) VMDown(v int) ([]job.ID, error) {
	if v < 0 || v >= len(c.cl.VMs) {
		return nil, fmt.Errorf("core: no VM %d", v)
	}
	if c.down[v] {
		return nil, nil
	}
	c.down[v] = true
	revoked := c.live[v]
	slices.SortFunc(revoked, func(a, b *grant) int { return cmp.Compare(a.Job, b.Job) })
	var lost []job.ID
	for _, g := range revoked {
		delete(c.active, g.Job)
		c.pending = append(c.pending, g.spec)
		lost = append(lost, g.Job)
	}
	clear(revoked)
	c.live[v] = revoked[:0]
	// Whatever the dead VM owed is gone with it.
	c.pools[v] = scheduler.Pools{}
	return lost, nil
}

// VMUp marks VM v recovered; it re-enters telemetry and placement on the
// next ObserveSlot.
func (c *Controller) VMUp(v int) error {
	if v < 0 || v >= len(c.cl.VMs) {
		return fmt.Errorf("core: no VM %d", v)
	}
	c.down[v] = false
	return nil
}

// VMIsDown reports whether VM v is currently marked failed.
func (c *Controller) VMIsDown(v int) bool { return c.down[v] }

// DrainOutcomes exposes matured prediction errors for monitoring. The
// returned slice is a reused buffer, valid until the next DrainOutcomes
// call; callers that retain samples must copy them out.
func (c *Controller) DrainOutcomes() []predict.ErrorSample {
	return c.sched.DrainOutcomes()
}

// OppInUse returns VM v's outstanding opportunistic grants.
func (c *Controller) OppInUse(v int) resource.Vector { return c.pools[v].Opp }

// FreshInUse returns VM v's outstanding fresh grants.
func (c *Controller) FreshInUse(v int) resource.Vector { return c.pools[v].Fresh }
