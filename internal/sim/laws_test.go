package sim

import (
	"fmt"
	"math"

	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/scheduler"
)

// This file holds the laws every slot of a run is held to. runWithLaws
// enters through the same seam Run uses — newRunState → run → finalize —
// and checks, through runState.checkSlot after every slot's telemetry:
//
//   - the telemetry law: every VM's telemetry is what the paper's rule
//     makes of its resident's own series, computed here from
//     job.DemandAt/UnusedAt without the tables or vmTelemetry;
//   - the pool law: every VM's grant ledger stays non-negative and inside
//     its guaranteed capacity, and a down VM holds and hosts nothing.

// runWithLaws runs cfg as Run does, with both laws checked on every slot,
// and returns the result plus the run's path counters (telemetry slots
// aliased / patched). It fails on the first VM that breaks a law, or when
// the laws did not see every slot.
func runWithLaws(cfg Config) (*Result, pathCounters, error) {
	rs, err := newRunState(cfg)
	if err != nil {
		return nil, pathCounters{}, err
	}
	defer rs.release()
	snap, err := PrepareWorkload(cfg)
	if err != nil {
		return nil, pathCounters{}, err
	}
	residents := snap.Residents()
	var lawErr error
	checked := 0
	rs.checkSlot = func(t int, residentUse, unused []resource.Vector) {
		if checked++; lawErr == nil {
			lawErr = telemetryLaw(rs, residents, t, residentUse, unused)
		}
		if lawErr == nil {
			lawErr = poolLaw(rs, t)
		}
	}
	if err := rs.run(); err != nil {
		return nil, pathCounters{}, err
	}
	if lawErr != nil {
		return nil, pathCounters{}, lawErr
	}
	if checked != rs.horizon {
		return nil, pathCounters{}, fmt.Errorf("laws checked %d of %d slots", checked, rs.horizon)
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
		return fmt.Errorf("telemetry law: slot %d: %d/%d telemetry entries for %d VMs", t, len(residentUse), len(unused), len(residents))
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
			return fmt.Errorf("telemetry law: slot %d VM %d: telemetry (use %v, unused %v), the law gives (use %v, unused %v)",
				t, v, residentUse[v], unused[v], use, free)
		}
	}
	return nil
}

// poolLaw holds every VM's grant ledger to vmPoolLaw at slot t, with the
// resident and long-lived reservations as what the guaranteed capacity
// carries besides the fresh pool.
func poolLaw(rs *runState, t int) error {
	for v := range rs.vms {
		st := &rs.vms[v]
		hosted := len(st.running) + len(st.longRunning)
		if err := vmPoolLaw(st.Pools, st.capacity, st.reserved.Add(st.longReserved), rs.downMask[v], hosted); err != nil {
			return fmt.Errorf("pool law: slot %d VM %d: %w", t, v, err)
		}
	}
	return nil
}

// vmPoolLaw is the grant accounting of Section III for one VM: both pools
// are non-negative (NaN is not); reserved + Fresh fits the VM's capacity;
// and a down VM holds zero in both pools and hosts no job.
//
// The fit has a tolerance, derived from FitsIn's 1e-9 slack. Every fresh
// charge, a short job's placement or a long job's reservation, is admitted
// by FitsIn against a headroom clamped at zero, so it may overshoot the
// guaranteed line by at most 1e-9; a resize grows only into that clamped
// headroom and adds nothing. A VM hosting n jobs may therefore stand up to
// n·1e-9 over its capacity, and the check allows exactly that on top of
// the 1e-9 FitsIn itself grants, which covers the sum's rounding (a few
// ulps at capacities of at most a few hundred units).
func vmPoolLaw(p scheduler.Pools, capacity, reserved resource.Vector, down bool, hosted int) error {
	if !p.Fresh.NonNegative() || !p.Opp.NonNegative() {
		return fmt.Errorf("negative pool: fresh %v, opportunistic %v", p.Fresh, p.Opp)
	}
	slack := 1e-9 * float64(hosted)
	if total := reserved.Add(p.Fresh); !total.FitsIn(capacity.Add(resource.Vector{slack, slack, slack})) {
		return fmt.Errorf("reserved %v + fresh %v = %v over capacity %v (%d jobs hosted)", reserved, p.Fresh, total, capacity, hosted)
	}
	if down && (p != scheduler.Pools{} || hosted != 0) {
		return fmt.Errorf("down VM holds fresh %v, opportunistic %v and hosts %d jobs", p.Fresh, p.Opp, hosted)
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
