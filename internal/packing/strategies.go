package packing

import (
	"math/rand"

	"repro/internal/job"
	"repro/internal/resource"
)

// Extensions beyond the paper's pairwise packing and most-matched
// placement: k-way entities and alternative placement strategies, used by
// the ablation benches to quantify how much each of the paper's choices
// contributes.

// Packer runs PackK with scratch it keeps between calls, so a scheduler
// that packs every slot allocates nothing once warm. The zero value is
// ready. The entities PackK returns, and their Jobs, live in that scratch:
// they are valid until the next call.
type Packer struct {
	used     []bool
	dominant []resource.Kind
	peaks    []resource.Vector
	members  []*job.Job
	entities []Entity
}

// PackK generalizes the paper's pairwise packing to entities of up to k
// jobs: each anchor greedily absorbs the highest-deviation partner with a
// dominant resource not yet in the entity, until k members or no candidate
// remains. Pack is PackK(jobs, ref, 2). k < 2 yields singletons.
func (p *Packer) PackK(jobs []*job.Job, reference resource.Vector, k int) []Entity {
	n := len(jobs)
	if cap(p.used) < n {
		p.used = make([]bool, n)
		p.dominant = make([]resource.Kind, n)
		p.peaks = make([]resource.Vector, n)
		// Every job joins exactly one entity, so members never regrows
		// within a call and the entities' Jobs stay on one backing array.
		p.members = make([]*job.Job, 0, n)
	}
	used, dominant, peaks := p.used[:n], p.dominant[:n], p.peaks[:n]
	clear(used)
	p.members = p.members[:0]
	p.entities = p.entities[:0]
	for i, j := range jobs {
		peaks[i] = j.PeakDemand()
		dominant[i] = peaks[i].Dominant(reference)
	}
	for i, j := range jobs {
		if used[i] {
			continue
		}
		used[i] = true
		start := len(p.members)
		p.members = append(p.members, j)
		// Summed from zero in member order, so a pair's Demand is the sum
		// of its two peaks bit for bit.
		sum := resource.Vector{}.Add(peaks[i])
		var have [resource.NumKinds]bool
		have[dominant[i]] = true
		for k >= 2 && len(p.members)-start < k {
			best := -1
			bestDV := -1.0
			for cand := range jobs {
				if used[cand] || have[dominant[cand]] {
					continue
				}
				if dv := Deviation(sum, peaks[cand]); dv > bestDV {
					bestDV = dv
					best = cand
				}
			}
			if best < 0 {
				break
			}
			used[best] = true
			p.members = append(p.members, jobs[best])
			have[dominant[best]] = true
			sum = sum.Add(peaks[best])
		}
		end := len(p.members)
		p.entities = append(p.entities, Entity{Jobs: p.members[start:end:end], Demand: sum})
	}
	return p.entities
}

// Strategy selects a VM for a demand among candidates. Implementations
// must not mutate the candidate slice.
type Strategy interface {
	// Choose returns the chosen candidate's VM; ok is false when nothing
	// fits.
	Choose(demand resource.Vector, candidates []Candidate, maxCapacity resource.Vector) (vm int, ok bool)
}

// MostMatched is the paper's Eq. 22 strategy (smallest adequate volume).
type MostMatched struct{}

// Choose implements Strategy.
func (MostMatched) Choose(demand resource.Vector, candidates []Candidate, maxCapacity resource.Vector) (int, bool) {
	return Place(demand, candidates, maxCapacity)
}

// FirstFit picks the first candidate (by slice order) that satisfies the
// demand — the classic baseline bin-packing heuristic.
type FirstFit struct{}

// Choose implements Strategy.
func (FirstFit) Choose(demand resource.Vector, candidates []Candidate, _ resource.Vector) (int, bool) {
	for _, c := range candidates {
		if demand.FitsIn(c.Available) {
			return c.VM, true
		}
	}
	return 0, false
}

// WorstFit picks the fitting candidate with the LARGEST volume, spreading
// load — the opposite of most-matched.
type WorstFit struct{}

// Choose implements Strategy.
func (WorstFit) Choose(demand resource.Vector, candidates []Candidate, maxCapacity resource.Vector) (int, bool) {
	bestVM := -1
	bestVol := -1.0
	for _, c := range candidates {
		if !demand.FitsIn(c.Available) {
			continue
		}
		vol := c.Available.Volume(maxCapacity)
		if bestVM < 0 || vol > bestVol || (vol == bestVol && c.VM < bestVM) {
			bestVM = c.VM
			bestVol = vol
		}
	}
	if bestVM < 0 {
		return 0, false
	}
	return bestVM, true
}

// RandomFit picks a uniformly random fitting candidate — the baselines'
// placement rule in the paper's evaluation.
type RandomFit struct {
	Rng *rand.Rand
}

// Choose implements Strategy.
func (r RandomFit) Choose(demand resource.Vector, candidates []Candidate, _ resource.Vector) (int, bool) {
	var fits []int
	for _, c := range candidates {
		if demand.FitsIn(c.Available) {
			fits = append(fits, c.VM)
		}
	}
	if len(fits) == 0 {
		return 0, false
	}
	if r.Rng == nil {
		return fits[0], true
	}
	return fits[r.Rng.Intn(len(fits))], true
}
