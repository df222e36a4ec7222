// Package packing implements Section III-B of the paper: complementary job
// packing and most-matched VM selection.
//
// Packing pairs jobs whose dominant resources differ (e.g. a CPU-intensive
// job with a storage-intensive one) so a single VM's multi-resource slack
// is consumed evenly instead of fragmenting (paper Figs. 1 and 4). The
// complementary partner of a job is the one maximizing the demand
// deviation
//
//	DV(j,i) = Σₖ ((d_jk − avg_k)² + (d_ik − avg_k)²),  avg_k = (d_jk+d_ik)/2.
//
// Placement picks, among VMs whose available resources satisfy the entity,
// the one with the smallest unused resource volume (Eq. 22):
//
//	volumeⱼ = Σₖ r̂_jk / C′ₖ,
//
// where C′ is the per-kind maximum capacity across all VMs — the "most
// matched" VM, leaving big slack blocks intact for later entities.
package packing

import (
	"repro/internal/job"
	"repro/internal/resource"
)

// Deviation computes DV(j,i) for two demand vectors. It expands to
// Σₖ (d_jk − d_ik)²/2: the more complementary two jobs are per kind, the
// larger the deviation.
func Deviation(a, b resource.Vector) float64 {
	var dv float64
	for k := range a {
		avg := (a[k] + b[k]) / 2
		da := a[k] - avg
		db := b[k] - avg
		dv += da*da + db*db
	}
	return dv
}

// Entity is a set of jobs allocated together on one VM (one job, or a
// complementary pair).
type Entity struct {
	Jobs []*job.Job
	// Demand is the summed per-kind peak demand of the members — what a
	// VM must satisfy to host the entity.
	Demand resource.Vector
}

// Pack groups the jobs into entities following the paper's algorithm:
// fetch each job in list order, search the remaining jobs for the
// highest-deviation partner among those with a different dominant resource
// (normalized by reference capacities), pair them, and continue. Jobs with
// no complementary partner form singleton entities. The input slice is not
// modified. It is PackK with k = 2 on a Packer of its own, so the entities
// are the caller's to keep.
func Pack(jobs []*job.Job, reference resource.Vector) []Entity {
	var p Packer
	return p.PackK(jobs, reference, 2)
}

// Candidate is one VM a placer may choose: its ID and the resources
// available to the entity there (predicted unlocked unused, or unallocated
// headroom, depending on which pool the scheduler is placing from).
type Candidate struct {
	VM        int
	Available resource.Vector
}

// Place selects the most-matched VM for the demand: among candidates whose
// Available satisfies it, the one with the smallest volume (Eq. 22), with
// the lower VM ID breaking exact ties deterministically. ok is false when
// no candidate fits. maxCapacity is C′ of Eq. 22.
func Place(demand resource.Vector, candidates []Candidate, maxCapacity resource.Vector) (vm int, ok bool) {
	bestVM := -1
	bestVol := 0.0
	for _, c := range candidates {
		if !demand.FitsIn(c.Available) {
			continue
		}
		vol := c.Available.Volume(maxCapacity)
		if bestVM < 0 || vol < bestVol || (vol == bestVol && c.VM < bestVM) {
			bestVM = c.VM
			bestVol = vol
		}
	}
	if bestVM < 0 {
		return 0, false
	}
	return bestVM, true
}
