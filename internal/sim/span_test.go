package sim

import (
	"reflect"
	"testing"

	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/trace"
)

// TestSpanBeginsRightAfterFinish pins, by count, where spans start and
// stop. The equivalence matrix catches a span that runs one slot too long,
// but not one that stops too early (that only loses fast-forward), so each
// case hand-computes spanSlots. One explicit short job arrives at slot 35
// (5 past the 30-slot warmup) and, placed at once, finishes at slot 38; the
// horizon is 30+15+250 = 295, and slot 0 always runs (it refreshes). A span
// starts at the slot right after the last job finishes and stops before the
// next refresh slot, arrival or the horizon.
func TestSpanBeginsRightAfterFinish(t *testing.T) {
	const arrival, finish = 35, 38
	for _, tc := range []struct {
		name   string
		window int  // RCCR refresh window
		long   bool // one long job arriving at slot 15 that outlives the run
		want   int
	}{
		// Nothing refreshes after slot 0: spans [1, 35) and [39, 295).
		{"arrival-and-horizon", 1000, false, 34 + 256},
		// The refresh slots 100 and 200 split the tail: spans [1, 35),
		// [39, 100), [101, 200) and [201, 295).
		{"refresh", 100, false, 34 + 61 + 99 + 94},
		// Long jobs arrive from warmup/2 = 15 on: the one span is [1, 15),
		// and the long job stays active to the horizon.
		{"long-arrival", 1000, true, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() Config {
				cfg := spanQuietConfig(scheduler.RCCR, 31)
				cfg.Scheduler.RCCR.Window = tc.window
				cfg.ExplicitJobs = []*job.Job{{
					ID: 1, Arrival: arrival - cfg.Warmup, Duration: 4, SLOFactor: 10,
					Request: resource.Vector{0.4, 1.6, 4}, Usage: []resource.Vector{{0.2, 0.8, 2}},
				}}
				if tc.long {
					cfg.LongJobs = 1
					cfg.Long = trace.LongJobConfig{ArrivalSpan: 1, MinDuration: 400, MaxDuration: 401}
				}
				return cfg
			}
			got, pc, err := oracle{}.run(mk())
			if err != nil {
				t.Fatal(err)
			}
			if got.Slots != 295 || got.SLO.Finished != 1 || arrival+got.ResponseP50-1 != finish {
				t.Fatalf("%d slots, SLO %+v, response %d: the job must run slots [%d, %d] of 295",
					got.Slots, got.SLO, got.ResponseP50, arrival, finish)
			}
			if tc.long && (got.LongPlaced != 1 || got.LongFinished != 0) {
				t.Fatalf("long jobs placed %d, finished %d: want one running to the horizon",
					got.LongPlaced, got.LongFinished)
			}
			if pc.spanSlots != tc.want {
				t.Errorf("replayed %d span slots, want %d", pc.spanSlots, tc.want)
			}
			want, _, err := oracle{noSpans: true}.run(mk())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("span replay diverged from the slot loop:\n slots: %+v\n run:   %+v", want, got)
			}
		})
	}
}
