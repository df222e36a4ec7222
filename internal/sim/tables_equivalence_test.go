package sim

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/scheduler"
)

// TestObserveTableEquivalence pins the table telemetry path: in every
// scenario production Run (rows, patched where a VM is down, surged or
// hosts long jobs) must hold the telemetry law (laws_test.go) on every
// slot and produce the identical Result at 1 and 4 workers. The matrix
// covers the quiet aliased path itself, each patch kind alone and all
// three on the same VMs, a surge that clamps at the reservation, and an
// explicit-jobs run whose widened horizon forces real t % period wraps. The per-run path counters prove which path each slot
// took: every slot is served from the rows, and a scenario that means to
// patch does.
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
		// patches: the scenario must patch rows on some slots (else on
		// none); aliases: it must serve some slots' rows untouched.
		patches, aliases bool
	}{
		{"plain-rccr", func() Config { return base(scheduler.RCCR, 7) }, false, true},
		{"faulted", func() Config {
			cfg := base(scheduler.CORP, 11)
			cfg.Faults = faults.Config{
				Seed: 11, VMCrashProb: 0.01, MeanDowntime: 12,
				SurgeProb: 0.02, DelayProb: 0.05,
			}
			return cfg
		}, true, true},
		{"surged", func() Config {
			cfg := base(scheduler.RCCR, 13)
			cfg.Faults = faults.Config{
				Seed: 13, SurgeProb: 0.25, SurgeFactor: 1.8, MeanDowntime: 8,
			}
			return cfg
		}, true, false},
		{"mixed-long", func() Config {
			cfg := base(scheduler.CORP, 9)
			cfg.LongJobs = 8
			return cfg
		}, true, true},
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
		}, false, true},
		{"surge-long-crash", func() Config {
			// More long jobs than VMs, frequent surges and crashes: the
			// three patch kinds keep landing on the same VM, and a crash
			// kills the long jobs a surged VM hosts.
			cfg := base(scheduler.RCCR, 29)
			cfg.LongJobs = 40
			cfg.Faults = faults.Config{
				Seed: 29, VMCrashProb: 0.03, MeanDowntime: 6, SurgeProb: 0.3,
			}
			return cfg
		}, true, false},
		{"crash-only", func() Config {
			// SurgeProb = 0: the injector still hands out a (calm) surge
			// column every slot, which must not cost the alias — rows are
			// patched only while some VM is down. The timeline's unused-CPU
			// sum is the one reader of a down VM's (zeroed) entry.
			cfg := base(scheduler.RCCR, 31)
			cfg.Faults = faults.Config{Seed: 31, VMCrashProb: 0.004, MeanDowntime: 5}
			cfg.RecordTimeline = true
			return cfg
		}, true, true},
		{"surge-clamped", func() Config {
			// A factor far above reserved/demand: every surged demand
			// clamps at the reservation and the VM's unused pool is zero.
			cfg := base(scheduler.RCCR, 37)
			cfg.Faults = faults.Config{Seed: 37, SurgeProb: 1, SurgeFactor: 50}
			return cfg
		}, true, false},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			var want *Result
			for _, workers := range []int{1, 4} {
				cfg := sc.cfg()
				cfg.Workers = workers
				got, pc, err := runWithLaws(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(want, got) {
					t.Errorf("workers=%d diverged from workers=1:\n got:  %+v\n want: %+v", workers, got, want)
				}
				if sc.name == "surge-long-crash" && (got.LongFailed == 0 || got.Recovery.SurgeSlots == 0) {
					t.Fatalf("no crash killed a long job (%d) or no VM-slot surged (%d); the scenario pins nothing",
						got.LongFailed, got.Recovery.SurgeSlots)
				}
				if pc.slotsAliased+pc.slotsPatched != got.Slots {
					t.Errorf("workers=%d: every slot must be served from the rows: %+v over %d slots", workers, pc, got.Slots)
				}
				if sc.patches != (pc.slotsPatched > 0) || sc.patches != (pc.vmsPatched > 0) {
					t.Errorf("workers=%d: patches = %v, counters %+v", workers, sc.patches, pc)
				}
				if sc.aliases && pc.slotsAliased == 0 {
					t.Errorf("workers=%d: no slot served the rows untouched: %+v", workers, pc)
				}
			}
		})
	}
}

// scaleSmokeConfig is the scale profile at a truncated horizon: the same
// cluster and VM-capacity shape as scaleProfileConfig, just few and short
// enough jobs to finish in seconds.
func scaleSmokeConfig() Config {
	cfg := scaleProfileConfig()
	cfg.NumJobs, cfg.Warmup, cfg.ArrivalSpan, cfg.Drain = 4000, 5, 10, 30
	cfg.Jobs.MeanDuration = 8
	return cfg
}

// runScaleSmoke runs production Run at the scale profile's real width with
// the telemetry law checked on every slot, and returns its result and path
// counters.
func runScaleSmoke(t *testing.T, cfg Config) (*Result, pathCounters) {
	if testing.Short() {
		t.Skip("scale smoke skipped in -short mode")
	}
	got, pc, err := runWithLaws(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumJobs != 4000 {
		t.Fatalf("NumJobs = %d, want 4000", got.NumJobs)
	}
	if got.PlacedOpportunistic+got.PlacedFresh == 0 {
		t.Fatal("scale smoke placed no jobs; the run is vacuous")
	}
	return got, pc
}

// TestScaleProfileSmoke runs the calm scale burst. With TestScaleChurnSmoke
// it is the only tier-1 test that exercises the 20k-VM fast paths (SoA scan
// blocks, table rows, idle-VM early return in execute) at their real width.
// A calm fleet must serve every telemetry slot from the untouched rows.
func TestScaleProfileSmoke(t *testing.T) {
	_, pc := runScaleSmoke(t, scaleSmokeConfig())
	if pc.slotsPatched != 0 || pc.slotsAliased == 0 {
		t.Errorf("calm fleet left the aliased rows: %+v", pc)
	}
}

// TestScaleChurnSmoke adds the churn the rccr-scale5k-churn bench workload
// runs under — crashes, surges, long jobs — to the same burst: the dense
// long-job placement and the patched telemetry rows at 20000 VMs. The
// churned slots must be patched.
func TestScaleChurnSmoke(t *testing.T) {
	res, pc := runScaleSmoke(t, withChurn(scaleSmokeConfig(), 200))
	if pc.slotsPatched == 0 {
		t.Errorf("churned fleet: want patched rows, got %+v", pc)
	}
	if res.LongPlaced == 0 || res.Recovery.VMCrashes == 0 || res.Recovery.SurgeSlots == 0 {
		t.Errorf("churn smoke is vacuous: %d long placed, %d crashes, %d surged VM-slots",
			res.LongPlaced, res.Recovery.VMCrashes, res.Recovery.SurgeSlots)
	}
}

// TestObserveCalmSlotDoesNotAllocate is the telemetry phase's allocation
// gate: on a calm table-backed fleet (nothing down, surged or hosting long
// jobs) observe aliases the two table rows for the slot and hands them to
// the real scheduler's ObserveAll, and at Workers 1 none of that may touch
// the heap — for RCCR's independent predictors and for CORP's split observe
// with its serial per-kind training pass.
func TestObserveCalmSlotDoesNotAllocate(t *testing.T) {
	for _, sc := range []scheduler.Scheme{scheduler.RCCR, scheduler.CORP} {
		rs, err := newRunState(Config{
			NumPMs: 6, NumVMs: 24, NumJobs: 40, Seed: 7,
			Scheduler: scheduler.Config{Scheme: sc, Seed: 7},
			Workers:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		slot := 0
		if n := testing.AllocsPerRun(100, func() {
			rs.observe(slot)
			slot++
		}); n != 0 {
			t.Errorf("%v: observe allocates %v times per calm slot, want 0", sc, n)
		}
		if rs.slotsAliased != slot || rs.slotsPatched != 0 {
			t.Errorf("%v: aliased %d of %d slots (patched %d): the calm path was not taken",
				sc, rs.slotsAliased, slot, rs.slotsPatched)
		}
		rs.release()
	}
}
