package corp

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out. Each bench iteration regenerates
// the corresponding figure's series; run with -v (benches b.Log the series
// once) or use cmd/corpbench for the full text output.
//
// Benches default to quick mode (small cluster, 3-point sweeps) so the
// whole suite completes in minutes; set CORP_BENCH_FULL=1 for the paper's
// full scale.

import (
	"fmt"
	"os"
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

// benchFigure runs one figure per iteration and logs it once.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	o := benchOptions(1)
	var fig *Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = ReproduceFigure(id, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	if fig != nil {
		b.Log("\n" + fig.String())
	}
}

// BenchmarkFig06PredictionError regenerates Fig. 6 (prediction error rate
// vs number of jobs, cluster).
func BenchmarkFig06PredictionError(b *testing.B) { benchFigure(b, "fig06") }

// BenchmarkFig07Utilization regenerates Fig. 7 (per-resource utilization
// vs number of jobs, cluster).
func BenchmarkFig07Utilization(b *testing.B) { benchFigure(b, "fig07") }

// BenchmarkFig08UtilVsSLO regenerates Fig. 8 (overall utilization vs SLO
// violation rate, cluster).
func BenchmarkFig08UtilVsSLO(b *testing.B) { benchFigure(b, "fig08") }

// BenchmarkFig09SLOVsConfidence regenerates Fig. 9 (SLO violation rate vs
// confidence level, cluster).
func BenchmarkFig09SLOVsConfidence(b *testing.B) { benchFigure(b, "fig09") }

// BenchmarkFig10Overhead regenerates Fig. 10 (allocation overhead,
// cluster).
func BenchmarkFig10Overhead(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkFig11UtilizationEC2 regenerates Fig. 11 (per-resource
// utilization vs number of jobs, EC2).
func BenchmarkFig11UtilizationEC2(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkFig12UtilVsSLOEC2 regenerates Fig. 12 (overall utilization vs
// SLO violation rate, EC2).
func BenchmarkFig12UtilVsSLOEC2(b *testing.B) { benchFigure(b, "fig12") }

// BenchmarkFig13SLOVsConfidenceEC2 regenerates Fig. 13 (SLO violation rate
// vs confidence level, EC2).
func BenchmarkFig13SLOVsConfidenceEC2(b *testing.B) { benchFigure(b, "fig13") }

// BenchmarkFig14OverheadEC2 regenerates Fig. 14 (allocation overhead,
// EC2).
func BenchmarkFig14OverheadEC2(b *testing.B) { benchFigure(b, "fig14") }

// BenchmarkAblations regenerates the ablation study: full CORP, CORP
// without the HMM correction, without packing, without the confidence
// interval, and with RCCR's ETS predictor, side by side.
func BenchmarkAblations(b *testing.B) { benchFigure(b, "ablations") }

// BenchmarkSimulationPerScheme measures one full simulation run per
// scheme at bench scale — the end-to-end cost comparison behind
// Figs. 10/14.
func BenchmarkSimulationPerScheme(b *testing.B) {
	for _, sc := range scheduler.Schemes() {
		sc := sc
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

// TestReproduceFigureUnknownID covers the facade's error path.
func TestReproduceFigureUnknownID(t *testing.T) {
	if _, err := ReproduceFigure("fig99", QuickOptions(1)); err == nil {
		t.Error("unknown figure should fail")
	}
}

// TestFigureIDsAllRunnable checks every listed ID resolves to a runner.
func TestFigureIDsAllRunnable(t *testing.T) {
	for _, id := range FigureIDs() {
		if id == "tableII" {
			continue // runs instantly, exercised in TestTableIIDefaults
		}
		// Resolution only — running all would repeat the bench suite.
		if _, err := ReproduceFigure(id+"-missing", QuickOptions(1)); err == nil {
			t.Error("suffixed ID should not resolve")
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

// BenchmarkExtensionStrategies compares CORP placement strategies on a
// heterogeneous contended cluster.
func BenchmarkExtensionStrategies(b *testing.B) { benchFigure(b, "ext-strategies") }

// BenchmarkExtensionPackK compares entity sizes k = 1, 2, 3.
func BenchmarkExtensionPackK(b *testing.B) { benchFigure(b, "ext-packk") }

// BenchmarkExtensionMixedWorkload measures the cooperative long+short mode.
func BenchmarkExtensionMixedWorkload(b *testing.B) { benchFigure(b, "ext-mixed") }

// BenchmarkExtensionOracleGap measures the CORP-to-oracle headroom.
func BenchmarkExtensionOracleGap(b *testing.B) { benchFigure(b, "ext-oracle") }

// BenchmarkExtensionFaults sweeps the failure rate through the fault
// injector.
func BenchmarkExtensionFaults(b *testing.B) { benchFigure(b, "ext-faults") }

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
