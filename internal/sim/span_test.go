package sim

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/scheduler"
)

// spanQuietConfig is the quiet-heavy shape the span tests share: a short
// arrival burst followed by a long drain, so the tail is one quiescent
// stretch the event loop carves into spans (each bounded by the refresh
// event, the arrival chain having ended).
func spanQuietConfig(sc scheduler.Scheme, seed int64) Config {
	return Config{
		NumPMs: 8, NumVMs: 32, NumJobs: 60, Seed: seed,
		Warmup: 30, ArrivalSpan: 15, Drain: 250,
		Scheduler: scheduler.Config{Scheme: sc, Seed: seed},
		Clock:     &VirtualClock{StepMicros: 50},
		Workers:   1,
	}
}

// TestSpanFastForwardEquivalence pins the quiescent-span fast-forward
// (DESIGN.md §5f): every scenario must produce the identical Result from
// production Run (spans replayed in one loop) and from the reference slot
// loop, which runs every slot through every phase and has no span
// machinery at all. The per-run span counter proves each scenario does what
// its name claims — the quiet shapes must actually fast-forward, and the
// faulted/surged shapes must stand down completely.
func TestSpanFastForwardEquivalence(t *testing.T) {
	scenarios := []struct {
		name      string
		cfg       func() Config
		wantSpans bool // fast path must fire; otherwise it must fully stand down
	}{
		{"quiet-tail-rccr", func() Config {
			return spanQuietConfig(scheduler.RCCR, 7)
		}, true},
		{"quiet-tail-corp-workers4", func() Config {
			// CORP's engine implements ObserveSpan; workers > 1 exercises
			// the sharded positional replay inside the span.
			cfg := spanQuietConfig(scheduler.CORP, 11)
			cfg.Workers = 4
			return cfg
		}, true},
		{"arrival-gaps", func() Config {
			// Explicit jobs arriving every 40 slots: each gap goes quiet
			// once the burst drains, so spans form between bursts and the
			// pending arrival event lands exactly on a span edge.
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
			// quiet tail into long spans bounded only by the refresh event;
			// the span must stop exactly there so the matured prediction
			// outcomes drain at the refresh slot and nowhere else.
			cfg := spanQuietConfig(scheduler.RCCR, 17)
			cfg.Scheduler.RCCR.Window = 25
			return cfg
		}, true},
		{"fault-edge-stand-down", func() Config {
			// The injector re-arms its draw event every slot, so every
			// would-be span is bounded at its edge by a fault draw: the
			// fast path must never fire, and crash/recovery transitions
			// land exactly on those edges.
			cfg := spanQuietConfig(scheduler.RCCR, 19)
			cfg.Faults = faults.Config{
				Seed: 19, VMCrashProb: 0.02, MeanDowntime: 10,
			}
			return cfg
		}, false},
		{"surge-stand-down", func() Config {
			// Surges arm inside the fault layer's per-slot draws, so the
			// same per-slot event bound keeps the fast path down for the
			// whole run even when no VM ever crashes.
			cfg := spanQuietConfig(scheduler.CORP, 23)
			cfg.Faults = faults.Config{
				Seed: 23, SurgeProb: 0.2, SurgeFactor: 1.8, MeanDowntime: 8,
			}
			return cfg
		}, false},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			got, pc, err := oracle{}.run(sc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			ff := pc.spanSlots
			if sc.wantSpans && ff == 0 {
				t.Fatal("scenario never entered the span fast path; it pins nothing")
			}
			if !sc.wantSpans && ff != 0 {
				t.Fatalf("span fast path replayed %d slots; this scenario requires it to stand down", ff)
			}

			want, pc, err := oracle{slotLoop: true}.run(sc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if ff = pc.spanSlots; ff != 0 {
				t.Fatalf("slot loop replayed %d span slots; it must have no span path", ff)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("span replay diverged from the slot loop:\n slot: %+v\n span: %+v", want, got)
			}
		})
	}
}

// TestSpanBeginsRightAfterFinish pins where a span starts after the last
// running job finishes: at the very next slot. One explicit short job
// arrives at slot a and finishes at slot f; with a refresh window wider
// than the run nothing else is ever queued, so the quiet stretches [1, a)
// and [f+1, horizon) must each be replayed as one span, and the result
// must still match the slot loop bit for bit.
func TestSpanBeginsRightAfterFinish(t *testing.T) {
	const arrival = 5
	mk := func() Config {
		cfg := spanQuietConfig(scheduler.RCCR, 31)
		cfg.Scheduler.RCCR.Window = 1000
		cfg.ExplicitJobs = []*job.Job{{
			ID: 1, Arrival: arrival, Duration: 4, SLOFactor: 10,
			Request: resource.Vector{0.4, 1.6, 4}, Usage: []resource.Vector{{0.2, 0.8, 2}},
		}}
		return cfg
	}
	got, pc, err := oracle{}.run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if got.SLO.Finished != 1 {
		t.Fatalf("the job did not finish (%+v); the scenario pins nothing", got.SLO)
	}
	a := arrival + mk().Warmup
	f := a + got.ResponseP50 - 1
	if want := (a - 1) + (got.Slots - (f + 1)); pc.spanSlots != want {
		t.Errorf("replayed %d span slots, want %d: spans [1, %d) and [%d, %d)",
			pc.spanSlots, want, a, f+1, got.Slots)
	}
	want, _, err := oracle{slotLoop: true}.run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("span replay diverged from the slot loop:\n slot: %+v\n span: %+v", want, got)
	}
}

// TestSpanFastForwardWorkersAndCores pins the span path's other two axes:
// the engine's sharded ObserveSpan replay is bit-identical at any worker
// budget, and the event loop with spans matches the reference slot loop at
// either width.
func TestSpanFastForwardWorkersAndCores(t *testing.T) {
	mk := func(workers int) Config {
		cfg := spanQuietConfig(scheduler.CORP, 29)
		cfg.Workers = workers
		return cfg
	}
	want, pc, err := oracle{}.run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if pc.spanSlots == 0 {
		t.Fatal("reference run never entered the span fast path; the comparison is vacuous")
	}
	for _, tc := range []struct {
		name    string
		workers int
		o       oracle
	}{
		{"workers4-event", 4, oracle{}},
		{"workers1-slot", 1, oracle{slotLoop: true}},
		{"workers4-slot", 4, oracle{slotLoop: true}},
	} {
		got, _, err := tc.o.run(mk(tc.workers))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s diverged from workers=1 event loop", tc.name)
		}
	}
}
