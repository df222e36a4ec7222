// Package metrics implements the paper's evaluation metrics:
//
//   - per-resource utilization U_{j,t} (Eq. 1),
//   - weighted overall utilization U_{a,t} (Eq. 2),
//   - per-resource wastage ratio w_{j,t} (Eq. 3),
//   - weighted overall wastage ratio w_{a,t} (Eq. 4),
//   - the prediction error rate of Fig. 6 (the fraction of predictions
//     whose error falls outside [0, ε)),
//   - the SLO violation rate, and
//   - time-keeping for the scheduling-overhead figures (Figs. 10/14).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/resource"
)

// UtilizationCollector accumulates allocation/demand mass over an entire
// run so per-kind and overall utilization can be reported across all slots:
// Eq. 1, U_{j,t} = Σᵢ d_{ij,t} / Σᵢ r_{ij,t}, and its ω-weighted overall
// form Eq. 2, with the slot sums pooled over time. The wastage ratios of
// Eqs. 3–4 are the complements. A zero denominator yields 0.
type UtilizationCollector struct {
	Allocated resource.Vector
	Demand    resource.Vector
	Slots     int
}

// Observe adds one slot's per-job totals.
func (c *UtilizationCollector) Observe(allocated, demand resource.Vector) {
	c.Allocated = c.Allocated.Add(allocated)
	c.Demand = c.Demand.Add(demand)
	c.Slots++
}

// Utilization returns the pooled utilization for kind j.
func (c *UtilizationCollector) Utilization(j resource.Kind) float64 {
	den := c.Allocated.At(j)
	if den <= 0 {
		return 0
	}
	return c.Demand.At(j) / den
}

// Overall returns the pooled ω-weighted utilization.
func (c *UtilizationCollector) Overall(w resource.Weights) float64 {
	den := c.Allocated.Weighted(w)
	if den <= 0 {
		return 0
	}
	return c.Demand.Weighted(w) / den
}

// PredictionTally streams Fig. 6's prediction error rate: the fraction of
// matured predictions whose error δ = actual − predicted (Eq. 20) falls
// OUTSIDE [0, ε) — the complement of the paper's "ratio of the correctly
// predicted jobs", so lower is better, matching Fig. 6's ordering
// CORP < RCCR < CloudScale < DRA. It keeps the two counts the rate needs,
// not the samples. The band is tested positively so a non-finite error
// counts as outside it.
type PredictionTally struct {
	// Epsilon is the tolerance ε, in the errors' own units.
	Epsilon float64
	Samples int
	Outside int
}

// Add counts one matured prediction error.
func (t *PredictionTally) Add(err float64) {
	t.Samples++
	if !(err >= 0 && err < t.Epsilon) {
		t.Outside++
	}
}

// Rate returns Outside / Samples, or 0 before any sample.
func (t PredictionTally) Rate() float64 {
	if t.Samples == 0 {
		return 0
	}
	return float64(t.Outside) / float64(t.Samples)
}

// SLOStats tallies finished jobs against their response-time thresholds.
type SLOStats struct {
	Finished   int
	Violated   int
	Unfinished int
}

// ViolationRate returns violations / (finished + unfinished); an
// unfinished job at the end of a run counts as violated — it certainly
// missed its deadline.
func (s SLOStats) ViolationRate() float64 {
	total := s.Finished + s.Unfinished
	if total == 0 {
		return 0
	}
	return float64(s.Violated+s.Unfinished) / float64(total)
}

// RecoveryStats aggregates fault-injection and recovery accounting for one
// run: what failed, what was killed, and how the system healed. The zero
// value is what a fault-free run reports.
type RecoveryStats struct {
	// VMCrashes and PMCrashes count failure events; VMRecoveries counts
	// repairs that completed within the run.
	VMCrashes    int
	PMCrashes    int
	VMRecoveries int

	// Evictions counts short-lived jobs killed mid-run by a VM failure.
	// Retries counts the re-queues scheduled for them; RetriesExhausted
	// counts jobs abandoned after their retry budget ran out.
	Evictions        int
	Retries          int
	RetriesExhausted int

	// Replaced counts evicted jobs that were placed again; ReplaceSlots
	// sums their eviction-to-replacement gaps (backoff plus queueing).
	Replaced     int
	ReplaceSlots int

	// SurgeSlots counts (VM, slot) pairs spent under a resident demand
	// surge; Delays and InjectedDelayMicros tally transient
	// scheduler/RPC stalls charged to the overhead metric.
	Delays              int
	InjectedDelayMicros float64
	SurgeSlots          int

	// SLO violation attribution: ViolationsFailure counts violated or
	// unfinished jobs that were evicted at least once (failure damage);
	// ViolationsStarvation counts the rest (opportunistic starvation,
	// the paper's fault-free mechanism).
	ViolationsFailure    int
	ViolationsStarvation int
}

// MeanTimeToReplace returns the average slots from eviction to
// re-placement over replaced jobs (0 when none were replaced).
func (r RecoveryStats) MeanTimeToReplace() float64 {
	if r.Replaced == 0 {
		return 0
	}
	return float64(r.ReplaceSlots) / float64(r.Replaced)
}

// Series is a labeled (x, y) series, the unit every figure harness emits.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// String renders the series as "label: (x→y) ..." for harness output.
func (s *Series) String() string {
	out := s.Label + ":"
	for i := range s.X {
		out += fmt.Sprintf(" (%.4g→%.4g)", s.X[i], s.Y[i])
	}
	return out
}

// MeanY returns the mean of the Y values.
func (s *Series) MeanY() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	var sum float64
	for _, y := range s.Y {
		sum += y
	}
	return sum / float64(len(s.Y))
}

// LatencyTracker accumulates scheduling overhead: real compute time spent
// in scheduler decisions plus simulated communication latency, in
// microseconds. Figs. 10/14 report this as "the latency for allocating
// resource to 300 jobs".
type LatencyTracker struct {
	ComputeMicros float64
	CommMicros    float64
	Operations    int
}

// AddCompute records real decision-making time.
func (l *LatencyTracker) AddCompute(micros float64) {
	l.ComputeMicros += micros
}

// AddComm records one communication round-trip of the given cost.
func (l *LatencyTracker) AddComm(micros float64) {
	l.CommMicros += micros
	l.Operations++
}

// AddCommRepeat records n identical communication round-trips. The
// accumulator is advanced by n repeated additions, not by `+= n*micros`:
// float addition is not associative, so a single fused add would drift
// from n individual AddComm calls once the accumulator holds unrelated
// values (e.g. fault DelayMicros). Callers rely on this being bit-identical
// to a loop of AddComm.
func (l *LatencyTracker) AddCommRepeat(n int, micros float64) {
	for i := 0; i < n; i++ {
		l.CommMicros += micros
	}
	l.Operations += n
}

// TotalMicros returns compute + communication latency.
func (l *LatencyTracker) TotalMicros() float64 {
	return l.ComputeMicros + l.CommMicros
}

// TotalMillis returns the total in milliseconds.
func (l *LatencyTracker) TotalMillis() float64 {
	return l.TotalMicros() / 1000
}

// JainFairness computes Jain's fairness index (Σx)²/(n·Σx²) over the
// per-job service ratios: 1.0 means every job received the same fraction
// of its demand, 1/n means one job got everything. Empty or all-zero
// inputs return 0.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// PercentileInt returns the p-th percentile of integer samples (nearest
// rank); ok is false when empty.
func PercentileInt(xs []int, p float64) (int, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	if p <= 0 {
		return sorted[0], true
	}
	if p >= 100 {
		return sorted[len(sorted)-1], true
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], true
}
