// Package job models cloud jobs: their multi-resource demands over time,
// their reserved allocations, and their SLO (a response-time threshold, as
// in the paper's Section IV: "SLO is specified by using a threshold on the
// response time of a job, and the threshold is set based on the execution
// time of a task in the trace").
//
// Two job populations appear in the reproduction, both using this type:
//
//   - Resident (tenant) jobs hold reserved allocations r on VMs and use
//     d(t) ≤ r of it each slot. Their allocated-but-unused resource
//     r − d(t) is what CORP predicts and reallocates.
//   - Short-lived jobs arrive over time (the paper's |J| = 50–300 jobs,
//     runtimes of seconds to minutes, timeout ≤ 5 minutes) and are placed
//     opportunistically onto that unused resource.
package job

import (
	"fmt"
	"math"

	"repro/internal/resource"
)

// ID uniquely identifies a job within one simulation.
type ID int

// Class describes a job's resource intensity; the packing strategy pairs
// jobs of complementary classes (paper Fig. 1: "CPU-high and MEM-low,
// CPU-low and MEM-high").
type Class int

// Job intensity classes.
const (
	Balanced Class = iota
	CPUIntensive
	MemIntensive
	StorageIntensive
)

// String returns a human-readable class name.
func (c Class) String() string {
	switch c {
	case Balanced:
		return "balanced"
	case CPUIntensive:
		return "cpu-intensive"
	case MemIntensive:
		return "mem-intensive"
	case StorageIntensive:
		return "storage-intensive"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Job is an immutable job specification. Runtime state (placement,
// progress, completion) lives in the simulator, not here, so specs can be
// shared freely across schedulers being compared on identical workloads.
type Job struct {
	ID      ID
	Class   Class
	Arrival int // slot index at which the job is submitted

	// Duration is the nominal execution time in slots when the job
	// receives its full demand every slot.
	Duration int

	// Request is the reserved allocation r_i for resident jobs. For
	// arriving short-lived jobs it is the peak demand, used as the
	// amount a non-opportunistic scheduler would reserve.
	Request resource.Vector

	// Usage holds the actual per-slot demand d_{i,t}; Usage[k] is the
	// demand during the job's k-th slot of execution. len(Usage) ≥
	// Duration; the series wraps around if a starved job runs long.
	Usage []resource.Vector

	// SLOFactor scales Duration into the response-time threshold:
	// threshold = ⌈SLOFactor · Duration⌉ slots. The paper sets the
	// threshold "based on the execution time of a task in the trace".
	SLOFactor float64
}

// Validate reports the first structural problem with the spec, or nil.
// Amounts must be finite: a NaN or infinite field in a loaded trace would
// otherwise pass every sign check and poison the run's ledgers.
func (j *Job) Validate() error {
	switch {
	case j.Duration <= 0:
		return fmt.Errorf("job %d: non-positive duration %d", j.ID, j.Duration)
	case len(j.Usage) == 0:
		return fmt.Errorf("job %d: empty usage series", j.ID)
	case j.Arrival < 0:
		return fmt.Errorf("job %d: negative arrival %d", j.ID, j.Arrival)
	case !(j.SLOFactor > 0 && j.SLOFactor <= math.MaxFloat64):
		return fmt.Errorf("job %d: SLO factor %v is not positive and finite", j.ID, j.SLOFactor)
	}
	for k, u := range j.Usage {
		if !validAmounts(u) {
			return fmt.Errorf("job %d: negative or non-finite usage at slot %d: %v", j.ID, k, u)
		}
	}
	if !validAmounts(j.Request) {
		return fmt.Errorf("job %d: negative or non-finite request %v", j.ID, j.Request)
	}
	return nil
}

// validAmounts reports whether every component is in [0, +Inf); NaN fails
// both comparisons.
func validAmounts(v resource.Vector) bool {
	for _, x := range v {
		if !(x >= 0 && x <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// DemandAt returns the job's demand in its k-th slot of execution
// (k counted from 0). Indices past the series wrap around so a starved job
// that runs longer than its nominal duration keeps demanding resources.
func (j *Job) DemandAt(k int) resource.Vector {
	if len(j.Usage) == 0 {
		return resource.Vector{}
	}
	if k < 0 {
		k = 0
	}
	return j.Usage[k%len(j.Usage)]
}

// PeakDemand returns the element-wise maximum demand across the series.
func (j *Job) PeakDemand() resource.Vector {
	return resource.MaxAcross(j.Usage)
}

// MeanDemand returns the element-wise mean demand across the series.
func (j *Job) MeanDemand() resource.Vector {
	if len(j.Usage) == 0 {
		return resource.Vector{}
	}
	return resource.SumAcross(j.Usage).Scale(1 / float64(len(j.Usage)))
}

// UnusedAt returns the allocated-but-unused amount r − d(k) for a resident
// job, clamped at zero per kind (usage above the reservation is throttled,
// not borrowed).
func (j *Job) UnusedAt(k int) resource.Vector {
	return j.Request.Sub(j.DemandAt(k)).ClampNonNegative()
}

// SLOThreshold returns the response-time threshold in slots.
func (j *Job) SLOThreshold() int {
	t := int(j.SLOFactor*float64(j.Duration) + 0.999999)
	if t < j.Duration {
		t = j.Duration
	}
	return t
}

// Dominant returns the job's dominant resource kind given reference
// capacities (Section III-B: "the one that requires the most amount of
// resource"), based on peak demand.
func (j *Job) Dominant(reference resource.Vector) resource.Kind {
	return j.PeakDemand().Dominant(reference)
}

// Runtime is the mutable execution state of one job inside a simulation.
type Runtime struct {
	Spec *Job

	// Arrival is the job's arrival slot within this run's timeline. It
	// starts as Spec.Arrival plus any run-local offset (e.g. the
	// simulator's warmup shift) — run-local adjustments live here so the
	// shared spec stays immutable across runs.
	Arrival int

	// VM is the index of the hosting VM, or -1 while unplaced.
	VM int

	// Allocated is the amount currently granted to the job.
	Allocated resource.Vector

	// Progress accumulates fractional slots of completed work; the job
	// finishes when Progress ≥ Duration.
	Progress float64

	// Started and Finished are slot indices; -1 means not yet.
	Started  int
	Finished int

	// Slots counts how many slots the job has been running.
	Slots int

	// Opportunistic is set while the job's grant comes from its VM's
	// opportunistic pool (predicted-unused), clear for a fresh grant.
	Opportunistic bool

	// Evictions counts how many times a VM failure killed this job
	// mid-run; Retries counts the re-queues scheduled afterwards.
	Evictions int
	Retries   int

	// EvictedAt is the slot of the last eviction while the job awaits
	// re-placement, or -1. The simulator uses it for the
	// time-to-replace recovery metric.
	EvictedAt int
}

// RuntimeAt returns a fresh runtime for the spec arriving at the given
// run-local slot. Use this to apply timeline offsets (warmup shifts)
// without writing through the shared, immutable spec. It returns a value so
// a simulator can lay a run's runtimes out in one slab.
func RuntimeAt(spec *Job, arrival int) Runtime {
	return Runtime{Spec: spec, Arrival: arrival, VM: -1, Started: -1, Finished: -1, EvictedAt: -1}
}

// Evict resets the runtime after its hosting VM failed at the given slot:
// the placement and all progress are lost, and the job must be re-placed
// and re-run from the start. The lost time still counts against the job's
// response-time SLO, which is how failures become SLO damage.
func (r *Runtime) Evict(slot int) {
	r.VM = -1
	r.Allocated = resource.Vector{}
	r.Progress = 0
	r.Slots = 0
	r.Opportunistic = false
	r.Evictions++
	r.EvictedAt = slot
}

// Done reports whether the job has finished.
func (r *Runtime) Done() bool { return r.Finished >= 0 }

// ResponseTime returns finish − arrival in slots, or -1 if unfinished.
// A job that finishes in the slot it arrives has response time 1 (it
// occupied one scheduling slot).
func (r *Runtime) ResponseTime() int {
	if r.Finished < 0 {
		return -1
	}
	return r.Finished - r.Arrival + 1
}

// SLOViolated reports whether a finished job exceeded its response-time
// threshold. Unfinished jobs report false; the simulator accounts for
// still-running jobs past deadline separately.
func (r *Runtime) SLOViolated() bool {
	rt := r.ResponseTime()
	return rt >= 0 && rt > r.Spec.SLOThreshold()
}

// Advance simulates one slot of execution given the allocation that was in
// force. Progress for the slot is min over resource kinds of
// granted/demanded, capped at 1 — a starved job (granted < demanded on any
// kind) makes proportionally slower progress, which is how resource
// unavailability turns into response-time (and hence SLO) damage.
// It returns the progress made this slot.
func (r *Runtime) Advance(granted resource.Vector) float64 {
	rate := ProgressRate(granted, r.Spec.DemandAt(r.Slots))
	r.Progress += rate
	r.Slots++
	return rate
}

// ProgressRate is the slot progress Advance applies for the given grant:
// min over resource kinds of granted/demanded, capped at 1 and floored at
// 0, with zero-demand kinds imposing no constraint. The fully-granted fast
// path is exact, not approximate: when granted equals demand bitwise,
// every positive kind divides to exactly 1.0 (x/x == 1 for any finite
// positive x) and non-positive kinds are skipped, so the loop would return
// exactly 1. A NaN demand is skipped too: its quotient is NaN, and NaN < rate
// is false. The loop ranges over demand itself so the function stays under
// the compiler's inlining budget; the simulator calls it per job-slot.
func ProgressRate(granted, demand resource.Vector) float64 {
	if granted == demand {
		return 1
	}
	rate := 1.0
	for k, d := range demand {
		if d <= 0 {
			continue
		}
		g := granted[k] / d
		if g < rate {
			rate = g
		}
	}
	if rate < 0 {
		rate = 0
	}
	return rate
}
