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

// coreScenario is one case of the loop-equivalence matrix. coreScenarios
// covers every scheme, fault injection (crashes, retries, surges), the
// cooperative mixed workload (long arrivals), timeline recording (per-slot
// ledger sums) and the EC2 profile; spanScenarios covers the quiet shapes
// the span fast-forward replays. wantSpans says whether production must
// fast-forward at least one span or must fully stand down, so every case
// proves which path it pins.
type coreScenario struct {
	name      string
	cfg       func() Config
	wantSpans bool
}

// spanQuietConfig is the quiet-heavy shape the span cases share: a short
// arrival burst followed by a long drain, so the tail is one quiescent
// stretch the loop carves into spans (each bounded by the next refresh
// slot, the arrivals having ended).
func spanQuietConfig(sc scheduler.Scheme, seed int64) Config {
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
		scen = append(scen, coreScenario{sc.String(), func() Config { return base(sc, 7) }, true})
	}
	scen = append(scen,
		coreScenario{"faulted", func() Config {
			cfg := base(scheduler.CORP, 11)
			cfg.Faults = faults.Config{
				Seed: 11, VMCrashProb: 0.01, MeanDowntime: 12,
				SurgeProb: 0.02, DelayProb: 0.05,
			}
			return cfg
		}, false},
		coreScenario{"mixed-long", func() Config {
			cfg := base(scheduler.CORP, 9)
			cfg.LongJobs = 8
			return cfg
		}, true},
		coreScenario{"timeline", func() Config {
			// The timeline snapshots every slot, so no span may form.
			cfg := base(scheduler.RCCR, 5)
			cfg.RecordTimeline = true
			return cfg
		}, false},
		coreScenario{"ec2", func() Config {
			cfg := base(scheduler.CORP, 3)
			cfg.Profile = cluster.ProfileEC2
			cfg.NumPMs, cfg.NumVMs = 0, 0
			return cfg
		}, true},
		// Surge-heavy: most slots run with surged resident demand, so the
		// observe fast path must stand down for long stretches and the
		// execute pass sees surge-driven eviction/retry churn.
		coreScenario{"surged", func() Config {
			cfg := base(scheduler.RCCR, 13)
			cfg.Faults = faults.Config{
				Seed: 13, SurgeProb: 0.25, SurgeFactor: 1.8, MeanDowntime: 8,
			}
			return cfg
		}, false},
	)
	return scen
}

// spanScenarios are the quiet shapes built on spanQuietConfig: long quiet
// tails, arrival gaps, a wide refresh window, and injectors that must keep
// the fast path down.
func spanScenarios() []coreScenario {
	return []coreScenario{
		{"quiet-tail-rccr", func() Config {
			return spanQuietConfig(scheduler.RCCR, 7)
		}, true},
		{"quiet-tail-corp-workers4", func() Config {
			// CORP's engine implements ObserveSpan; workers > 1 runs its
			// per-kind training wide around the spans.
			cfg := spanQuietConfig(scheduler.CORP, 11)
			cfg.Workers = 4
			return cfg
		}, true},
		{"arrival-gaps", func() Config {
			// Explicit jobs arriving every 40 slots: each gap goes quiet
			// once the burst drains, so spans form between bursts and the
			// next arrival lands exactly on a span edge.
			cfg := spanQuietConfig(scheduler.RCCR, 13)
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
		}, true},
		{"refresh-bisect", func() Config {
			// A refresh window far wider than the default bisects the
			// quiet tail into long spans bounded only by the refresh slot;
			// the span must stop exactly there so the matured prediction
			// outcomes drain at the refresh slot and nowhere else.
			cfg := spanQuietConfig(scheduler.RCCR, 17)
			cfg.Scheduler.RCCR.Window = 25
			return cfg
		}, true},
		{"fault-edge-stand-down", func() Config {
			// An injector draws every slot, so the fast path must never
			// fire, and crash/recovery transitions land on would-be span
			// edges.
			cfg := spanQuietConfig(scheduler.RCCR, 19)
			cfg.Faults = faults.Config{
				Seed: 19, VMCrashProb: 0.02, MeanDowntime: 10,
			}
			return cfg
		}, false},
		{"surge-stand-down", func() Config {
			// Surges arm inside the injector's per-slot draws, so the same
			// check keeps the fast path down for the whole run even when no
			// VM ever crashes.
			cfg := spanQuietConfig(scheduler.CORP, 23)
			cfg.Faults = faults.Config{
				Seed: 23, SurgeProb: 0.2, SurgeFactor: 1.8, MeanDowntime: 8,
			}
			return cfg
		}, false},
	}
}

// TestCoreEquivalence pins the quiescent-span fast-forward (DESIGN.md §5f):
// for every scenario, production Run must reproduce the span-less slot loop
// (oracle_test.go), which holds the laws on every slot — every metric,
// timeline point and overhead microsecond — bit for bit. The slot loop
// must replay no span, and production must replay at least one exactly
// when the scenario says so.
func TestCoreEquivalence(t *testing.T) {
	checkEquivalence(t, coreScenarios())
}

// TestSpanFastForwardEquivalence runs the same pin on the quiet shapes,
// where the spans are long and their edges sit on each bound in turn.
func TestSpanFastForwardEquivalence(t *testing.T) {
	checkEquivalence(t, spanScenarios())
}

func checkEquivalence(t *testing.T, scenarios []coreScenario) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			got, pc, err := oracle{}.run(sc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if ff := pc.spanSlots; sc.wantSpans && ff == 0 {
				t.Fatal("scenario never entered the span fast path; it pins nothing")
			} else if !sc.wantSpans && ff != 0 {
				t.Fatalf("span fast path replayed %d slots; this scenario requires it to stand down", ff)
			}
			want, pc, err := oracle{noSpans: true, law: true}.run(sc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if ff := pc.spanSlots; ff != 0 {
				t.Fatalf("slot loop replayed %d span slots; it must have no span path", ff)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("production diverged from the span-less slot loop:\n slots: %+v\n run:   %+v", want, got)
			}
		})
	}
}

// TestCoreEquivalenceParallel repeats the pin with the run's one fan-out
// wide — CORP's per-kind training goroutines — in production Run with the
// laws checked on every slot, at several worker counts against the
// span-less slot loop at 1 worker. Each kind's training stream keeps its serial order and the kinds
// share no state, so worker count can only change wall time, never a
// figure; under -race (the race Make target covers this package) the
// concurrent kinds are also checked for data races. Scenarios are picked by
// name, so adding one to the matrix cannot change what runs wide.
func TestCoreEquivalenceParallel(t *testing.T) {
	counts := []int{2, 4, runtime.GOMAXPROCS(0)}
	wide := map[string]bool{
		"CORP": true, "faulted": true, "mixed-long": true, "surged": true,
		"quiet-tail-corp-workers4": true,
	}
	for _, sc := range append(coreScenarios(), spanScenarios()...) {
		if !wide[sc.name] {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			cfg := sc.cfg()
			cfg.Workers = 1
			want, _, err := oracle{noSpans: true}.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range counts {
				cfg := sc.cfg()
				cfg.Workers = w
				got, _, err := oracle{law: true}.run(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("workers=%d diverged from the serial slot loop", w)
				}
			}
		})
	}
}
