package experiments

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// failureRates is the ext-faults x-axis: the per-VM per-slot crash
// probability (PM crashes and demand surges scale along with it).
func failureRates(quick bool) []float64 {
	if quick {
		return []float64{0, 0.004}
	}
	return []float64{0, 0.0005, 0.002, 0.005}
}

// faultProfile builds the fault configuration for one sweep point: VM
// crashes at the given rate, whole-PM crashes an order of magnitude
// rarer, and resident demand surges twice as frequent as crashes (a
// demand shock is more common than a dead machine).
func faultProfile(rate float64, seed int64) faults.Config {
	return faults.Config{
		Seed:        seed,
		VMCrashProb: rate,
		PMCrashProb: rate / 10,
		SurgeProb:   rate * 2,
		DelayProb:   rate * 5,
	}
}

// faultsClock returns the deterministic clock the ext-faults runs inject
// so the overhead metric — and with it the whole figure — is bit-for-bit
// reproducible for a fixed seed. Each config needs its own instance.
func faultsClock() sim.Clock { return &sim.VirtualClock{StepMicros: 150} }

// ExtensionFaultTolerance sweeps the failure rate and reports each
// scheme's SLO violation rate ("<scheme>/slo") and overall utilization
// ("<scheme>/util"), averaged over the replication seeds. At rate 0 the
// injector is disabled and every number reproduces the fault-free run
// exactly. Expected shape: SLO damage grows with the failure rate for all
// schemes while the paper's ordering (CORP lowest) is preserved;
// utilization degrades only mildly because evicted jobs are requeued and
// retried with backoff.
func ExtensionFaultTolerance(o Options) (*Figure, error) {
	f := &Figure{
		ID:     "ext-faults",
		Title:  "Extension: SLO violations and utilization under fault injection (" + o.Profile.String() + ")",
		XLabel: "per-VM per-slot crash probability",
		YLabel: "value",
	}
	jobs := o.scale(300, 120)
	for _, sc := range schemeOrder {
		f.Series = append(f.Series,
			&metrics.Series{Label: sc.String() + "/slo"}, &metrics.Series{Label: sc.String() + "/util"})
	}
	for _, rate := range failureRates(o.Quick) {
		cells, err := o.replicate(o.seeds(0), len(schemeOrder), func(v int, seed int64) sim.Config {
			cfg := o.baseConfig(schemeOrder[v], jobs)
			cfg.Faults = faultProfile(rate, seed)
			cfg.Clock = faultsClock()
			return cfg
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: faults rate %g: %w", rate, err)
		}
		var rec metrics.RecoveryStats // pooled over schemes and seeds
		for v, cell := range cells {
			f.Series[2*v].Append(rate, mean(cell, sloRate))
			f.Series[2*v+1].Append(rate, mean(cell, overall))
			for _, r := range cell {
				rec.VMCrashes += r.Recovery.VMCrashes
				rec.Evictions += r.Recovery.Evictions
				rec.Retries += r.Recovery.Retries
				rec.RetriesExhausted += r.Recovery.RetriesExhausted
				rec.Replaced += r.Recovery.Replaced
				rec.ReplaceSlots += r.Recovery.ReplaceSlots
				rec.ViolationsFailure += r.Recovery.ViolationsFailure
				rec.ViolationsStarvation += r.Recovery.ViolationsStarvation
			}
		}
		f.Notes = append(f.Notes, fmt.Sprintf(
			"rate=%g: %d VM crashes, %d evictions, %d retries (%d exhausted), %d replaced (mean %.1f slots), violations failure/starvation %d/%d",
			rate, rec.VMCrashes, rec.Evictions, rec.Retries, rec.RetriesExhausted,
			rec.Replaced, rec.MeanTimeToReplace(),
			rec.ViolationsFailure, rec.ViolationsStarvation))
	}
	return f, nil
}
