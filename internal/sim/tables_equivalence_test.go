package sim

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/trace"
)

// TestObserveTableEquivalence pins the observe fast path: every scenario
// must produce the identical Result from production Run and from the same
// event loop with the periodic resident tables dropped, which recomputes
// every VM's telemetry every slot (oracle_test.go). The matrix covers the quiet fast path itself, fault-driven
// down-mask patching, surge-heavy runs (fast path standing down for long
// stretches), the mixed long-job workload (longActive gating), and an
// explicit-jobs run whose widened horizon forces real t % period wraps.
func TestObserveTableEquivalence(t *testing.T) {
	base := func(sc scheduler.Scheme, seed int64) Config {
		return Config{
			NumPMs: 6, NumVMs: 24, NumJobs: 40, Seed: seed,
			Warmup: 40, ArrivalSpan: 30, Drain: 60,
			Scheduler: scheduler.Config{Scheme: sc, Seed: seed},
			Clock:     &VirtualClock{StepMicros: 50},
			Workers:   1,
		}
	}
	scenarios := []struct {
		name string
		cfg  func() Config
	}{
		{"plain-rccr", func() Config { return base(scheduler.RCCR, 7) }},
		{"faulted", func() Config {
			cfg := base(scheduler.CORP, 11)
			cfg.Faults = faults.Config{
				Seed: 11, VMCrashProb: 0.01, MeanDowntime: 12,
				SurgeProb: 0.02, DelayProb: 0.05,
			}
			return cfg
		}},
		{"surged", func() Config {
			cfg := base(scheduler.RCCR, 13)
			cfg.Faults = faults.Config{
				Seed: 13, SurgeProb: 0.25, SurgeFactor: 1.8, MeanDowntime: 8,
			}
			return cfg
		}},
		{"mixed-long", func() Config {
			cfg := base(scheduler.CORP, 9)
			cfg.LongJobs = 8
			return cfg
		}},
		{"span-quiet-tail", func() Config {
			// A short burst followed by a long drain: the tail is pure
			// quiescence, so the event loop fast-forwards span after span
			// (each bounded by the refresh event); without tables no span
			// forms, so this pins the span replay against the fully plain
			// per-slot path.
			cfg := base(scheduler.RCCR, 17)
			cfg.ArrivalSpan = 10
			cfg.Drain = 200
			return cfg
		}},
		{"span-edge-fault", func() Config {
			// Faults during a quiet-heavy run: the injector re-arms its
			// draw event every slot, so every would-be span is bounded at
			// its edge by a fault draw and the fast path must stand down;
			// crash/recovery transitions land exactly on those edges.
			cfg := base(scheduler.RCCR, 19)
			cfg.ArrivalSpan = 10
			cfg.Drain = 150
			cfg.Faults = faults.Config{
				Seed: 19, VMCrashProb: 0.02, MeanDowntime: 10,
			}
			return cfg
		}},
		{"span-refresh-bisect", func() Config {
			// A refresh window far wider than the default bisects the quiet
			// tail into long spans whose only boundary is the refresh event
			// itself — the span must stop exactly at the refresh slot so the
			// matured prediction outcomes drain there and nowhere else.
			cfg := base(scheduler.RCCR, 23)
			cfg.Scheduler.RCCR.Window = 25
			cfg.ArrivalSpan = 10
			cfg.Drain = 200
			return cfg
		}},
		{"explicit-wrap", func() Config {
			cfg := base(scheduler.RCCR, 3)
			// Late-arriving explicit jobs widen the run horizon well past
			// the resident period, so table rows are read through several
			// full t % Period wraps.
			var jobs []*job.Job
			for i := 0; i < 12; i++ {
				usage := make([]resource.Vector, 4)
				for s := range usage {
					usage[s] = resource.Vector{0.2, 0.8, 2}
				}
				jobs = append(jobs, &job.Job{
					ID: job.ID(1000 + i), Arrival: 10 + 25*i,
					Request: resource.Vector{0.4, 1.6, 4}, Usage: usage,
					Duration: 4, SLOFactor: 10,
				})
			}
			cfg.ExplicitJobs = jobs
			return cfg
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			got, err := Run(sc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := oracle{recompute: true}.run(sc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("table telemetry diverged from recompute:\n tables:    %+v\n recompute: %+v", got, want)
			}
		})
	}
}

// TestScaleProfileSmoke runs the 5000-PM / 20000-VM scale profile at a
// truncated horizon — the same cluster and VM-capacity shape as the
// scale/sim-scale5k-rccr bench, just few enough jobs to finish in seconds —
// and pins production Run against the recompute oracle at that scale. This is
// the only tier-1 test that exercises the 20k-VM fast paths (SoA scan
// blocks, table rows, active-set shards) at their real width.
func TestScaleProfileSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke skipped in -short mode")
	}
	cfg := Config{
		Profile: cluster.ProfileScale,
		NumJobs: 4000, Seed: 1,
		Warmup: 5, ArrivalSpan: 10, Drain: 30,
		Scheduler: scheduler.Config{Scheme: scheduler.RCCR, Seed: 1},
		Jobs: trace.Config{
			MeanDuration: 8,
			VMCapacity:   resource.Vector{0.5, 2, 8},
		},
		Clock:   &VirtualClock{StepMicros: 50},
		Workers: 1,
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.NumJobs != 4000 {
		t.Fatalf("NumJobs = %d, want 4000", want.NumJobs)
	}
	if want.PlacedOpportunistic+want.PlacedFresh == 0 {
		t.Fatal("scale smoke placed no jobs; the run is vacuous")
	}
	got, _, err := oracle{recompute: true}.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("scale profile diverged from the recompute oracle")
	}
}
