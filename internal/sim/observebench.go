package sim

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/predict"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// ObserveBench drives the telemetry phase (runState.observe) in isolation
// over a synthetic idle fleet, for the bench harness's sim.observe_*
// metrics: the same per-slot work the full scale run pays on every quiet
// slot, with the predictor feed stubbed out so the measurement isolates
// the resident-demand computation (periodic-table rows versus per-VM
// recomputation from the residents' series).
type ObserveBench struct {
	rs *runState
	t  int
	// residents, when set, replace the table rows: every slot recomputes
	// each VM's telemetry from its resident's series.
	residents []*job.Job
}

// nullScheduler is a no-op scheduler so ObserveBench's runState satisfies
// initScratch without dragging a predictor fleet into the measurement.
type nullScheduler struct{}

func (nullScheduler) Name() string                         { return "null" }
func (nullScheduler) Window() int                          { return 6 }
func (nullScheduler) Observe(int, resource.Vector)         {}
func (nullScheduler) Refresh()                             {}
func (nullScheduler) ObserveAll([]resource.Vector, []bool) {}
func (nullScheduler) DrainOutcomes() []predict.ErrorSample { return nil }
func (nullScheduler) Place([]*job.Job, []scheduler.VMView) []scheduler.Placement {
	return nil
}

// NewObserveBench builds the bench fleet from a prepared workload snapshot
// (one resident per VM capacity in its params). disableTables recomputes
// every VM's telemetry from its resident each slot, the cost the tables
// save; otherwise the snapshot's periodic tables supply the rows.
func NewObserveBench(snap *workload.Snapshot, disableTables bool) (*ObserveBench, error) {
	residents := snap.Residents()
	caps := snap.Params().VMCaps
	if len(residents) != len(caps) {
		return nil, fmt.Errorf("sim: observe bench: %d residents for %d VM capacities", len(residents), len(caps))
	}
	vms := make([]vmState, len(residents))
	for i, r := range residents {
		vms[i] = vmState{capacity: caps[i], reserved: r.Request}
	}
	rs := &runState{
		sched:  nullScheduler{},
		vms:    vms,
		tables: snap.Tables(),
	}
	rs.initScratch()
	ob := &ObserveBench{rs: rs}
	if disableTables {
		ob.residents = residents
	}
	return ob, nil
}

// Run drives iters consecutive telemetry slots (continuing from the last
// call, so repeated calls walk the period instead of re-observing slot 0)
// and returns a checksum over the computed unused vectors so the work
// cannot be dead-code-eliminated.
func (ob *ObserveBench) Run(iters int) float64 {
	rs := ob.rs
	var sum float64
	for i := 0; i < iters; i++ {
		t := ob.t
		ob.t++
		if ob.residents == nil {
			rs.observe(t)
		} else {
			// observe without the tables: every VM through the same
			// per-VM rule, from its resident's series.
			for v, r := range ob.residents {
				rs.residentUse[v], rs.unused[v] = rs.vmTelemetry(v, r.DemandAt(t), r.UnusedAt(t))
			}
			rs.sched.ObserveAll(rs.unused, rs.downMask)
		}
		sum += rs.unused[t%len(rs.vms)][0]
	}
	return sum
}
