package workload

import (
	"testing"

	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/trace"
)

func tableTestParams(t *testing.T, numVMs, horizon int) Params {
	t.Helper()
	caps := make([]resource.Vector, numVMs)
	for i := range caps {
		caps[i] = resource.Vector{4, 16, 180}
	}
	return Params{
		VMCaps:    caps,
		Residents: trace.ResidentConfig{Seed: 3, Horizon: horizon, ReservedShare: 0.6},
	}
}

// TestResidentTablesMatchRecomputation pins every table entry exactly equal
// (==, not approximately) to the DemandAt/UnusedAt recomputation it
// replaces, across three full period wraps.
func TestResidentTablesMatchRecomputation(t *testing.T) {
	snap, err := Build(tableTestParams(t, 12, 30))
	if err != nil {
		t.Fatal(err)
	}
	tab := snap.Tables()
	if tab == nil {
		t.Fatal("Tables() returned nil for a uniform resident population")
	}
	residents := snap.Residents()
	if tab.NumVMs != len(residents) {
		t.Fatalf("NumVMs = %d, want %d", tab.NumVMs, len(residents))
	}
	if tab.Period != 30 {
		t.Fatalf("Period = %d, want 30", tab.Period)
	}
	for slot := 0; slot < 3*tab.Period; slot++ {
		p := slot % tab.Period
		demand, unused := tab.DemandRow(p), tab.UnusedRow(p)
		for v, r := range residents {
			if want := r.DemandAt(slot); demand[v] != want {
				t.Fatalf("slot %d VM %d: demand %v != DemandAt %v", slot, v, demand[v], want)
			}
			if want := r.UnusedAt(slot); unused[v] != want {
				t.Fatalf("slot %d VM %d: unused %v != UnusedAt %v", slot, v, unused[v], want)
			}
		}
	}
}

// TestTablesLazyAndCounted pins the lazy build: Bytes() must not include
// the tables until Tables() is first called, and repeated calls return the
// same instance.
func TestTablesLazyAndCounted(t *testing.T) {
	snap, err := Build(tableTestParams(t, 8, 24))
	if err != nil {
		t.Fatal(err)
	}
	before := snap.Bytes()
	tab := snap.Tables()
	if tab == nil {
		t.Fatal("Tables() returned nil")
	}
	after := snap.Bytes()
	if grow := after - before; grow != tab.Bytes() {
		t.Fatalf("Bytes grew by %d after Tables(), want %d", grow, tab.Bytes())
	}
	// Two per-(phase, VM) tables plus the per-phase demand-row sums.
	if want := int64((2*8*24 + 24) * resource.NumKinds * 8); tab.Bytes() != want {
		t.Fatalf("table Bytes = %d, want %d", tab.Bytes(), want)
	}
	if again := snap.Tables(); again != tab {
		t.Fatal("second Tables() call returned a different instance")
	}
}

// TestTablesNonUniformPeriod pins the guard: resident populations without
// one shared usage-cycle length have no single period and must yield nil
// tables (the simulator then keeps the recomputation path).
func TestTablesNonUniformPeriod(t *testing.T) {
	if tab := buildResidentTables(nil, false); tab != nil {
		t.Fatal("empty population: want nil tables")
	}
	mk := func(n int) *job.Job {
		usage := make([]resource.Vector, n)
		for i := range usage {
			usage[i] = resource.Vector{1, 2, 3}
		}
		return &job.Job{ID: 1, Request: resource.Vector{2, 4, 6}, Usage: usage, Duration: n}
	}
	if tab := buildResidentTables([]*job.Job{mk(6), mk(8)}, false); tab != nil {
		t.Fatal("mixed-period population: want nil tables")
	}
	if tab := buildResidentTables([]*job.Job{mk(6), mk(6)}, false); tab == nil {
		t.Fatal("uniform population: want tables")
	}
}
