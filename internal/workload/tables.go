package workload

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/workpool"
)

// ResidentTables precomputes each resident's periodic demand and unused
// vectors for every phase of its usage cycle. Resident demand is periodic —
// job.DemandAt(k) wraps k % len(Usage) — so absent surges and long jobs a
// VM's (residentUse, unused) pair at slot t depends only on t mod Period.
// The simulator's telemetry phase starts every slot from two rows of these
// tables and patches only the VMs that are down, surged or host long jobs;
// because every entry is computed by the very same DemandAt/UnusedAt calls
// the per-VM recomputation would make, the values are bit-identical, not
// merely close.
//
// Layout is phase-major: row p holds all VMs' vectors for phase p
// contiguously, so a slot streams two dense rows instead of striding
// across per-VM blocks.
//
// Aliasing contract: the rows returned by DemandRow/UnusedRow are views
// into the snapshot-shared backing slabs, and the simulator's telemetry
// phase aliases its per-slot scratch directly to them (copy-on-write: it
// copies into run-owned buffers only when a down, surged or long-job VM
// needs its entry patched). Every consumer of those rows — predictor
// feeds, the execute reduction, timeline snapshots — therefore MUST treat
// them as strictly read-only; a single write through an aliased row would
// corrupt the table for every concurrent run sharing the snapshot.
type ResidentTables struct {
	// NumVMs is the number of residents (one per VM).
	NumVMs int
	// Period is the shared usage-cycle length in slots.
	Period int

	demand []resource.Vector // [p*NumVMs+v] = residents[v].DemandAt(p)
	unused []resource.Vector // [p*NumVMs+v] = residents[v].UnusedAt(p)
}

// DemandRow returns the per-VM resident demand vectors for phase p
// (p must already be reduced mod Period). Read-only.
func (t *ResidentTables) DemandRow(p int) []resource.Vector {
	return t.demand[p*t.NumVMs : (p+1)*t.NumVMs]
}

// UnusedRow returns the per-VM resident unused vectors for phase p. Read-only.
func (t *ResidentTables) UnusedRow(p int) []resource.Vector {
	return t.unused[p*t.NumVMs : (p+1)*t.NumVMs]
}

// Bytes returns the retained size of the tables.
func (t *ResidentTables) Bytes() int64 {
	const vecBytes = resource.NumKinds * 8
	return int64(len(t.demand)+len(t.unused)) * vecBytes
}

// buildResidentTables materialises the tables for a resident population. It
// fails when the usage cycles are not all one non-zero length, as then
// there is no single period to tabulate; the trace generator gives every
// resident a series exactly Horizon long, so that only happens to a
// population built by hand. With fanOut the phase range is split into one
// part per budget slot and the parts run as workpool.Do tasks; each phase
// row is still written by one task in ascending VM order, so the tables
// are the same bit for bit.
func buildResidentTables(residents []*job.Job, fanOut bool) (*ResidentTables, error) {
	if len(residents) == 0 {
		return nil, fmt.Errorf("workload: no residents to tabulate")
	}
	period := len(residents[0].Usage)
	for _, r := range residents {
		if len(r.Usage) != period || period == 0 {
			return nil, fmt.Errorf("workload: resident %d has a %d-slot usage cycle, want one shared period (resident %d has %d)",
				r.ID, len(r.Usage), residents[0].ID, period)
		}
	}
	t := &ResidentTables{
		NumVMs: len(residents),
		Period: period,
		demand: make([]resource.Vector, period*len(residents)),
		unused: make([]resource.Vector, period*len(residents)),
	}
	if !fanOut {
		t.fill(residents, 0, period)
		return t, nil
	}
	parts := min(period, workpool.Limit())
	workpool.Do(parts, func(i int) { t.fill(residents, i*period/parts, (i+1)*period/parts) })
	return t, nil
}

// fill writes phase rows [lo, hi).
func (t *ResidentTables) fill(residents []*job.Job, lo, hi int) {
	for p := lo; p < hi; p++ {
		row := p * t.NumVMs
		for v, r := range residents {
			t.demand[row+v] = r.DemandAt(p)
			t.unused[row+v] = r.UnusedAt(p)
		}
	}
}

// Tables returns the snapshot's periodic resident tables, built by Build.
// Never nil. Read-only; shared by every run holding the snapshot.
func (s *Snapshot) Tables() *ResidentTables { return s.tables }
