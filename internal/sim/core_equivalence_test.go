package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/scheduler"
)

// coreScenario is one slot-vs-event equivalence case. The matrix covers
// every scheme, fault injection (the retry/evPlace re-arm paths), the
// cooperative mixed workload (long-arrival events), timeline recording
// (per-slot ledger sums) and the EC2 profile.
type coreScenario struct {
	name string
	cfg  func() Config
}

func coreScenarios() []coreScenario {
	base := func(sc scheduler.Scheme, seed int64) Config {
		return Config{
			NumPMs: 6, NumVMs: 24, NumJobs: 40, Seed: seed,
			Warmup: 40, ArrivalSpan: 30, Drain: 60,
			Scheduler: scheduler.Config{Scheme: sc, Seed: seed},
			Clock:     &VirtualClock{StepMicros: 50},
			Workers:   1,
		}
	}
	var scen []coreScenario
	for _, sc := range append(scheduler.Schemes(), scheduler.Oracle) {
		sc := sc
		scen = append(scen, coreScenario{sc.String(), func() Config { return base(sc, 7) }})
	}
	scen = append(scen,
		coreScenario{"faulted", func() Config {
			cfg := base(scheduler.CORP, 11)
			cfg.Faults = faults.Config{
				Seed: 11, VMCrashProb: 0.01, MeanDowntime: 12,
				SurgeProb: 0.02, DelayProb: 0.05,
			}
			return cfg
		}},
		coreScenario{"mixed-long", func() Config {
			cfg := base(scheduler.CORP, 9)
			cfg.LongJobs = 8
			return cfg
		}},
		coreScenario{"timeline", func() Config {
			cfg := base(scheduler.RCCR, 5)
			cfg.RecordTimeline = true
			return cfg
		}},
		coreScenario{"ec2", func() Config {
			cfg := base(scheduler.CORP, 3)
			cfg.Profile = cluster.ProfileEC2
			cfg.NumPMs, cfg.NumVMs = 0, 0
			return cfg
		}},
		// Surge-heavy: most slots run with surged resident demand, so the
		// observe fast path must stand down for long stretches and the
		// execute pass sees surge-driven eviction/retry churn.
		coreScenario{"surged", func() Config {
			cfg := base(scheduler.RCCR, 13)
			cfg.Faults = faults.Config{
				Seed: 13, SurgeProb: 0.25, SurgeFactor: 1.8, MeanDowntime: 8,
			}
			return cfg
		}},
	)
	return scen
}

// TestCoreEquivalence pins the event loop against the reference slot loop
// (oracle_test.go): for every scenario, production Run must reproduce the
// oracle's Result — every metric, timeline point and overhead microsecond —
// bit for bit.
func TestCoreEquivalence(t *testing.T) {
	for _, sc := range coreScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			want, _, err := oracle{slotLoop: true}.run(sc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(sc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("event loop diverged from slot loop:\n slot:  %+v\n event: %+v", want, got)
			}
		})
	}
}

// TestCoreEquivalenceParallel repeats the pin with the run's one fan-out
// wide — CORP's per-kind training goroutines — in production Run and in the
// same run with the resident tables dropped (serial telemetry recompute),
// each at several worker counts against the slot loop at 1 worker. Each
// kind's training stream keeps its serial order and the kinds share no
// state, so worker count can only change wall time, never a figure; under
// -race (the race Make target covers this package) the concurrent kinds are
// also checked for data races. Scenarios are picked by name, so adding one
// to the matrix cannot change what runs wide.
func TestCoreEquivalenceParallel(t *testing.T) {
	counts := []int{2, 4, runtime.GOMAXPROCS(0)}
	wide := map[string]bool{"CORP": true, "faulted": true, "mixed-long": true, "surged": true}
	for _, sc := range coreScenarios() {
		if !wide[sc.name] {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			want, _, err := oracle{slotLoop: true}.run(sc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range counts {
				for _, o := range []oracle{{}, {recompute: true}} {
					cfg := sc.cfg()
					cfg.Workers = w
					got, _, err := o.run(cfg)
					if err != nil {
						t.Fatalf("workers=%d %+v: %v", w, o, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("event loop (workers=%d, %+v) diverged from serial slot loop", w, o)
					}
				}
			}
		})
	}
}
