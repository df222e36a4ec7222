package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/scheduler"
)

// coreScenario is one case of the law suite. coreScenarios covers every
// scheme, fault injection (crashes, retries, surges), the cooperative mixed
// workload (long arrivals), timeline recording (per-slot ledger sums), the
// EC2 profile, and quiet-heavy shapes: gaps between explicit arrivals, a
// wide refresh window, and crashes and surges landing on quiet slots.
type coreScenario struct {
	name string
	cfg  func() Config
}

// quietConfig is the quiet-heavy shape: a short arrival burst followed by
// a long drain, so most slots run nothing but telemetry and refresh.
func quietConfig(sc scheduler.Scheme, seed int64) Config {
	return Config{
		NumPMs: 8, NumVMs: 32, NumJobs: 60, Seed: seed,
		Warmup: 30, ArrivalSpan: 15, Drain: 250,
		Scheduler: scheduler.Config{Scheme: sc, Seed: seed},
		Clock:     &VirtualClock{StepMicros: 50},
		Workers:   1,
	}
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
	return append(scen,
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
		coreScenario{"arrival-gaps", func() Config {
			// Explicit jobs arriving every 40 slots: each burst drains
			// before the next arrives, so runs of idle slots alternate
			// with single arrivals.
			cfg := quietConfig(scheduler.RCCR, 13)
			var jobs []*job.Job
			for i := 0; i < 6; i++ {
				usage := make([]resource.Vector, 3)
				for s := range usage {
					usage[s] = resource.Vector{0.2, 0.8, 2}
				}
				jobs = append(jobs, &job.Job{
					ID: job.ID(2000 + i), Arrival: 20 + 40*i,
					Request: resource.Vector{0.4, 1.6, 4}, Usage: usage,
					Duration: 3, SLOFactor: 10,
				})
			}
			cfg.ExplicitJobs = jobs
			return cfg
		}},
		coreScenario{"refresh-window-25", func() Config {
			// A refresh window far wider than the default: prediction
			// outcomes mature and drain only at the refresh slots, every
			// 25th slot of the quiet tail.
			cfg := quietConfig(scheduler.RCCR, 17)
			cfg.Scheduler.RCCR.Window = 25
			return cfg
		}},
		coreScenario{"fault-edge-quiet", func() Config {
			// Crashes and recoveries in a quiet-heavy run: most of them
			// land on slots where nothing runs or queues.
			cfg := quietConfig(scheduler.RCCR, 19)
			cfg.Faults = faults.Config{
				Seed: 19, VMCrashProb: 0.02, MeanDowntime: 10,
			}
			return cfg
		}},
		coreScenario{"surge-edge-quiet", func() Config {
			// Surges without crashes in a quiet-heavy CORP run: surged
			// telemetry feeds the predictors on idle slots.
			cfg := quietConfig(scheduler.CORP, 23)
			cfg.Faults = faults.Config{
				Seed: 23, SurgeProb: 0.2, SurgeFactor: 1.8, MeanDowntime: 8,
			}
			return cfg
		}},
	)
}

// TestCoreEquivalence runs every scenario once through production's slot
// loop with the telemetry and pool laws (laws_test.go) checked on every
// slot; runWithLaws fails unless the laws saw all of the run's slots.
// Results are pinned bit for bit by the figure and bench goldens, not here.
func TestCoreEquivalence(t *testing.T) {
	for _, sc := range coreScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			if _, _, err := runWithLaws(sc.cfg()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCoreEquivalenceParallel holds the run's one fan-out — CORP's
// per-kind training goroutines — to the serial run: with the laws checked
// on every slot, Workers 2, 4 and GOMAXPROCS must reproduce Workers 1 bit
// for bit. Each kind's training stream keeps its serial order and the
// kinds share no state, so worker count can only change wall time, never a
// figure; under -race (the race Make target covers this package) the
// concurrent kinds are also checked for data races. Scenarios are picked
// by name, so adding one to the matrix cannot change what runs wide.
func TestCoreEquivalenceParallel(t *testing.T) {
	counts := []int{2, 4, runtime.GOMAXPROCS(0)}
	wide := map[string]bool{"CORP": true, "faulted": true, "mixed-long": true, "surged": true}
	for _, sc := range coreScenarios() {
		if !wide[sc.name] {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			cfg := sc.cfg()
			cfg.Workers = 1
			want, _, err := runWithLaws(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range counts {
				cfg := sc.cfg()
				cfg.Workers = w
				got, _, err := runWithLaws(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("workers=%d diverged from workers=1", w)
				}
			}
		})
	}
}
