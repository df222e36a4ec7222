package sim

import (
	"fmt"
	"math"

	"repro/internal/job"
	"repro/internal/resource"
)

// This file holds what the equivalence suites hold production Run to. Both
// enter through the same seam Run uses — newRunState → a loop → finalize —
// and drive the same runSlot:
//
//   - the span-less slot loop, the reference for the quiescent-span
//     fast-forward and nothing else;
//   - the telemetry law, a per-slot check through runState.checkSlot that
//     every VM's telemetry is what the paper's rule makes of its resident's
//     own series, computed here from job.DemandAt/UnusedAt without the
//     tables or vmTelemetry.

// runSlots is the span-less reference loop: production's run with every
// slot stepped through runSlot, so it is the oracle for the quiescent-span
// fast-forward.
func (rs *runState) runSlots() error {
	for t := 0; t < rs.horizon; t++ {
		if err := rs.runSlot(t); err != nil {
			return err
		}
	}
	return nil
}

// oracle names one way of driving a run through the seam.
type oracle struct {
	// noSpans drives runSlots instead of the production loop.
	noSpans bool
	// law checks every slot's telemetry, walked or replayed, against
	// telemetryLaw; the run fails on the first VM that breaks it.
	law bool
}

// run executes cfg through the seam and returns the result plus the run's
// path counters (slots the span fast-forward replayed, telemetry slots
// aliased / patched). The zero oracle is production Run, step for step.
func (o oracle) run(cfg Config) (*Result, pathCounters, error) {
	rs, err := newRunState(cfg)
	if err != nil {
		return nil, pathCounters{}, err
	}
	defer rs.release()
	var lawErr error
	checked := 0
	if o.law {
		snap, err := PrepareWorkload(cfg)
		if err != nil {
			return nil, pathCounters{}, err
		}
		residents := snap.Residents()
		rs.checkSlot = func(t int, residentUse, unused []resource.Vector) {
			if checked++; lawErr == nil {
				lawErr = telemetryLaw(rs, residents, t, residentUse, unused)
			}
		}
	}
	loop := rs.run
	if o.noSpans {
		loop = rs.runSlots
	}
	if err := loop(); err != nil {
		return nil, pathCounters{}, err
	}
	if lawErr != nil {
		return nil, pathCounters{}, fmt.Errorf("telemetry law: %w", lawErr)
	}
	if o.law && checked != rs.horizon {
		return nil, pathCounters{}, fmt.Errorf("telemetry law checked %d of %d slots", checked, rs.horizon)
	}
	return rs.finalize(), rs.pathCounters, nil
}

// telemetryLaw holds slot t's telemetry to the rule of Section III-A as the
// simulator models it, VM by VM and bit for bit: a down VM reports nothing;
// an up VM uses its resident's demand for the slot and leaves the rest of
// the reservation unused, except that a surge scales the demand by its
// factor, capped at the reservation; then every long job the VM hosts adds
// the slack between its reservation and its current demand. Only the run
// state the rule names is read (down mask, surge factors, long jobs).
func telemetryLaw(rs *runState, residents []*job.Job, t int, residentUse, unused []resource.Vector) error {
	if len(residentUse) != len(residents) || len(unused) != len(residents) {
		return fmt.Errorf("slot %d: %d/%d telemetry entries for %d VMs", t, len(residentUse), len(unused), len(residents))
	}
	for v, r := range residents {
		var use, free resource.Vector
		if !rs.downMask[v] {
			use, free = r.DemandAt(t), r.UnusedAt(t)
			if rs.surge != nil && rs.surge[v] > 1 {
				use = use.Scale(rs.surge[v]).Min(r.Request)
				free = r.Request.Sub(use).ClampNonNegative()
			}
			for _, lj := range rs.vms[v].longRunning {
				free = free.Add(lj.Spec.Request.Sub(lj.Spec.DemandAt(lj.Slots)).ClampNonNegative())
			}
		}
		if !sameBits(residentUse[v], use) || !sameBits(unused[v], free) {
			return fmt.Errorf("slot %d VM %d: telemetry (use %v, unused %v), the law gives (use %v, unused %v)",
				t, v, residentUse[v], unused[v], use, free)
		}
	}
	return nil
}

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b resource.Vector) bool {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}
