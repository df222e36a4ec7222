package corp

// BenchmarkFigures has one sub-benchmark per registry ID: every table and
// figure of the paper's evaluation, the ablation study and the extensions.
// Each iteration regenerates the figure's series; run with -v (benches
// b.Log the series once) or use cmd/corpbench for the full text output.
//
// Benches default to quick mode (small cluster, 3-point sweeps) so the
// whole suite completes in minutes; set CORP_BENCH_FULL=1 for the paper's
// full scale.

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/scheduler"
)

// TestMain reports the workload snapshot cache's counters after the suite,
// so `make bench-figs` CI output shows whether the figure sweeps actually
// shared generations — a sharing regression appears as a hit-rate collapse.
func TestMain(m *testing.M) {
	code := m.Run()
	if st := WorkloadCacheCounters(); st.Hits+st.Misses > 0 {
		fmt.Printf("workload cache: %d hits, %d misses, %d evictions, %.1f MB resident\n",
			st.Hits, st.Misses, st.Evictions, float64(st.Bytes)/1e6)
	}
	os.Exit(code)
}

// benchOptions picks quick or full scale.
func benchOptions(seed int64) Options {
	if os.Getenv("CORP_BENCH_FULL") != "" {
		return FullOptions(seed)
	}
	return QuickOptions(seed)
}

// TestTableIIDefaults pins the implemented defaults to Table II.
func TestTableIIDefaults(t *testing.T) {
	f, err := ReproduceFigure("tableII", QuickOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	get := func(label string) float64 {
		s := f.SeriesByLabel(label)
		if s == nil {
			t.Fatalf("Table II entry %q missing", label)
		}
		return s.Y[0]
	}
	checks := map[string]float64{
		"resource types l":    3,
		"P_th":                0.95,
		"DNN layers h":        4,
		"DNN units per layer": 50,
		"HMM states H":        3,
		"confidence min":      0.50,
		"confidence max":      0.90,
		"jobs |J| max":        300,
	}
	for label, want := range checks {
		if got := get(label); got != want {
			t.Errorf("%s = %v, want %v", label, got, want)
		}
	}
}

// BenchmarkFigures regenerates one registry figure per sub-benchmark
// (-bench 'Figures/fig08$' picks one) and logs it once.
func BenchmarkFigures(b *testing.B) {
	o := benchOptions(1)
	for _, id := range FigureIDs() {
		b.Run(id, func(b *testing.B) {
			var fig *Figure
			for i := 0; i < b.N; i++ {
				var err error
				if fig, err = ReproduceFigure(id, o); err != nil {
					b.Fatal(err)
				}
			}
			b.Log("\n" + fig.String())
		})
	}
}

// BenchmarkSimulationPerScheme measures one full simulation run per
// scheme at bench scale — the end-to-end cost comparison behind
// Figs. 10/14.
func BenchmarkSimulationPerScheme(b *testing.B) {
	for _, sc := range scheduler.Schemes() {
		b.Run(sc.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := SimConfig{
					NumPMs: 10, NumVMs: 40, NumJobs: 80, Seed: int64(i),
					Scheduler: SchedulerConfig{Scheme: sc, Seed: int64(i)},
				}
				if _, err := RunSimulation(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReproduceFigureUnknownID: an unknown ID fails, and its error lists
// every valid one.
func TestReproduceFigureUnknownID(t *testing.T) {
	_, err := ReproduceFigure("fig99", QuickOptions(1))
	if err == nil {
		t.Fatal("unknown figure should fail")
	}
	for _, id := range FigureIDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error does not list %q: %v", id, err)
		}
	}
}

// TestFigureIDsAllRunnable runs every listed ID through ReproduceFigure,
// its simulations stubbed out: each must resolve to a runner that returns
// the figure of that ID (internal/experiments' TestFigureGolden runs them
// for real).
func TestFigureIDsAllRunnable(t *testing.T) {
	o := QuickOptions(1)
	o.RunBatch = func(cfgs []SimConfig) ([]*SimResult, error) {
		results := make([]*SimResult, len(cfgs))
		for i := range results {
			results[i] = &SimResult{}
		}
		return results, nil
	}
	for _, id := range FigureIDs() {
		f, err := ReproduceFigure(id, o)
		if err != nil {
			t.Errorf("%s: %v", id, err)
		} else if f.ID != id || len(f.Series) == 0 {
			t.Errorf("%s: got figure %q with %d series", id, f.ID, len(f.Series))
		}
	}
}

// TestDefaultSimConfig pins the facade defaults.
func TestDefaultSimConfig(t *testing.T) {
	cfg := DefaultSimConfig()
	if cfg.NumJobs != 300 || cfg.Scheduler.Scheme != SchemeCORP || cfg.Profile != ProfileCluster {
		t.Errorf("DefaultSimConfig = %+v", cfg)
	}
}

// TestFacadeWorkload exercises the workload generation re-export.
func TestFacadeWorkload(t *testing.T) {
	jobs, err := GenerateWorkload(WorkloadConfig{Seed: 1, NumJobs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 10 {
		t.Errorf("got %d jobs", len(jobs))
	}
}

// TestReproduceExtFaultsQuick runs the fault-tolerance extension through
// the public facade (the acceptance path for the fault subsystem).
func TestReproduceExtFaultsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	f, err := ReproduceFigure("ext-faults", QuickOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "ext-faults" || len(f.Series) != 8 {
		t.Fatalf("figure = %q with %d series", f.ID, len(f.Series))
	}
	// The facade re-exports the fault config and deterministic clock.
	var _ FaultConfig = FaultConfig{VMCrashProb: 0.01}
	var _ Clock = &VirtualClock{StepMicros: 1}
}
