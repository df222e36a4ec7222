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

// TestTablesBuiltWithSnapshot pins the eager build: Build returns the
// snapshot with its tables, Bytes() already counts them, and every call of
// Tables returns that one instance.
func TestTablesBuiltWithSnapshot(t *testing.T) {
	snap, err := Build(tableTestParams(t, 8, 24))
	if err != nil {
		t.Fatal(err)
	}
	tab := snap.Tables()
	if tab == nil {
		t.Fatal("Build returned a snapshot without tables")
	}
	// Two per-(phase, VM) tables.
	if want := int64(2 * 8 * 24 * resource.NumKinds * 8); tab.Bytes() != want {
		t.Fatalf("table Bytes = %d, want %d", tab.Bytes(), want)
	}
	if traces := jobsBytes(snap.Residents()) + jobsBytes(snap.ShortJobs()) + jobsBytes(snap.LongJobs()); snap.Bytes() != traces+tab.Bytes() {
		t.Fatalf("snapshot Bytes = %d, want traces %d + tables %d", snap.Bytes(), traces, tab.Bytes())
	}
	if again := snap.Tables(); again != tab {
		t.Fatal("second Tables() call returned a different instance")
	}
}

// TestTablesNonUniformPeriod pins the guard: a resident population without
// one shared, non-zero usage-cycle length has no single period, and
// tabulating it is an error, not a snapshot without tables.
func TestTablesNonUniformPeriod(t *testing.T) {
	mk := func(n int) *job.Job {
		usage := make([]resource.Vector, n)
		for i := range usage {
			usage[i] = resource.Vector{1, 2, 3}
		}
		return &job.Job{ID: 1, Request: resource.Vector{2, 4, 6}, Usage: usage, Duration: n}
	}
	for _, tc := range []struct {
		name      string
		residents []*job.Job
		ok        bool
	}{
		{"empty", nil, false},
		{"mixed-period", []*job.Job{mk(6), mk(8)}, false},
		{"zero-period", []*job.Job{mk(0), mk(0)}, false},
		{"uniform", []*job.Job{mk(6), mk(6)}, true},
	} {
		tab, err := buildResidentTables(tc.residents, false)
		if ok := err == nil; ok != tc.ok || ok != (tab != nil) {
			t.Errorf("%s: tables %v, error %v; want ok = %v", tc.name, tab != nil, err, tc.ok)
		}
	}
}
