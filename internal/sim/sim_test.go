package sim

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/trace"
)

// small returns a quick config for the given scheme.
func small(sc scheduler.Scheme, seed int64) Config {
	return Config{
		NumPMs: 10, NumVMs: 40, NumJobs: 80, Seed: seed,
		Scheduler: scheduler.Config{Scheme: sc, Seed: seed},
	}
}

func TestRunBasicInvariants(t *testing.T) {
	for _, sc := range scheduler.Schemes() {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			r, err := Run(small(sc, 1))
			if err != nil {
				t.Fatal(err)
			}
			if r.Scheme != sc.String() {
				t.Errorf("Scheme = %q", r.Scheme)
			}
			if r.Slots != 90+60+150 {
				t.Errorf("Slots = %d", r.Slots)
			}
			for _, k := range resource.Kinds() {
				u := r.Utilization[k]
				if u < 0 || u > 1.000001 {
					t.Errorf("utilization[%v] = %v outside [0,1]", k, u)
				}
				cu := r.ClusterUtilization[k]
				if cu < 0 || cu > 1.000001 {
					t.Errorf("cluster utilization[%v] = %v outside [0,1]", k, cu)
				}
			}
			if r.Overall < 0 || r.Overall > 1.000001 {
				t.Errorf("overall = %v", r.Overall)
			}
			if r.Wastage < -1e-9 || r.Wastage > 1 {
				t.Errorf("wastage = %v", r.Wastage)
			}
			if r.SLORate < 0 || r.SLORate > 1 {
				t.Errorf("SLO rate = %v", r.SLORate)
			}
			if r.PredictionErrorRate < 0 || r.PredictionErrorRate > 1 {
				t.Errorf("error rate = %v", r.PredictionErrorRate)
			}
			if r.PredictionSamples == 0 {
				t.Error("no prediction samples matured")
			}
			placed := r.PlacedOpportunistic + r.PlacedFresh
			if placed+r.NeverPlaced != r.NumJobs {
				t.Errorf("placement accounting: %d placed + %d never != %d jobs",
					placed, r.NeverPlaced, r.NumJobs)
			}
			if r.SLO.Finished+r.SLO.Unfinished != r.NumJobs {
				t.Errorf("SLO accounting: %d + %d != %d",
					r.SLO.Finished, r.SLO.Unfinished, r.NumJobs)
			}
			if r.Overhead.TotalMicros() <= 0 {
				t.Error("overhead should be positive")
			}
		})
	}
}

func TestRunDeterministicMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("two full CORP runs")
	}
	// All metrics except wall-clock overhead must be identical across
	// same-seed runs.
	a, err := Run(small(scheduler.CORP, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(small(scheduler.CORP, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Overall != b.Overall || a.SLORate != b.SLORate ||
		a.PredictionErrorRate != b.PredictionErrorRate ||
		a.PlacedOpportunistic != b.PlacedOpportunistic {
		t.Errorf("same-seed runs diverge: %+v vs %+v", a, b)
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a, err := Run(small(scheduler.RCCR, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(small(scheduler.RCCR, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Overall == b.Overall && a.PredictionErrorRate == b.PredictionErrorRate {
		t.Error("different seeds should produce different workloads")
	}
}

// TestPaperOrderings is the headline integration test: on one seed, the
// four schemes must reproduce the paper's orderings for utilization
// (Fig. 7), SLO violation rate (Fig. 9 levels), prediction error rate
// (Fig. 6) and overhead (Fig. 10).
func TestPaperOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("integration ordering test")
	}
	results := map[scheduler.Scheme]*Result{}
	for _, sc := range scheduler.Schemes() {
		r, err := Run(small(sc, 3))
		if err != nil {
			t.Fatal(err)
		}
		results[sc] = r
	}
	corp, rccr := results[scheduler.CORP], results[scheduler.RCCR]
	cs, dra := results[scheduler.CloudScale], results[scheduler.DRA]

	// Utilization: CORP > RCCR > CloudScale > DRA (Fig. 7).
	if !(corp.Overall > rccr.Overall && rccr.Overall > cs.Overall && cs.Overall > dra.Overall) {
		t.Errorf("utilization ordering broken: CORP=%.3f RCCR=%.3f CS=%.3f DRA=%.3f",
			corp.Overall, rccr.Overall, cs.Overall, dra.Overall)
	}
	// Prediction error rate: CORP lowest; DRA and CloudScale clearly
	// above RCCR (Fig. 6).
	if !(corp.PredictionErrorRate < rccr.PredictionErrorRate) {
		t.Errorf("error rate: CORP %.3f should beat RCCR %.3f",
			corp.PredictionErrorRate, rccr.PredictionErrorRate)
	}
	if !(rccr.PredictionErrorRate < cs.PredictionErrorRate) ||
		!(rccr.PredictionErrorRate < dra.PredictionErrorRate) {
		t.Errorf("error rate: RCCR %.3f should beat CS %.3f and DRA %.3f",
			rccr.PredictionErrorRate, cs.PredictionErrorRate, dra.PredictionErrorRate)
	}
	// SLO: CORP lowest, DRA highest (Figs. 8/9 levels).
	if !(corp.SLORate <= rccr.SLORate && rccr.SLORate <= cs.SLORate && cs.SLORate <= dra.SLORate) {
		t.Errorf("SLO ordering broken: CORP=%.3f RCCR=%.3f CS=%.3f DRA=%.3f",
			corp.SLORate, rccr.SLORate, cs.SLORate, dra.SLORate)
	}
	// Overhead: CORP highest (Fig. 10); wall-clock so compare loosely.
	for _, other := range []*Result{rccr, cs, dra} {
		if corp.Overhead.TotalMicros() <= other.Overhead.TotalMicros() {
			t.Errorf("overhead: CORP %.1fms should exceed %s %.1fms",
				corp.Overhead.TotalMillis(), other.Scheme, other.Overhead.TotalMillis())
		}
	}
}

func TestEC2ProfileRuns(t *testing.T) {
	r, err := Run(Config{
		Profile: cluster.ProfileEC2, NumJobs: 50, Seed: 4,
		Scheduler: scheduler.Config{Scheme: scheduler.CORP, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Profile != "ec2" {
		t.Errorf("profile = %q", r.Profile)
	}
	// EC2's comm latency per op is 8× the cluster's; overhead must
	// reflect heavier communication (Fig. 14 vs Fig. 10).
	if r.Overhead.CommMicros <= 0 {
		t.Error("EC2 comm overhead missing")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.NumJobs != 300 || c.Warmup != 90 || c.ArrivalSpan != 60 || c.Drain != 150 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if c.Epsilon != 0.10 {
		t.Errorf("epsilon default = %v", c.Epsilon)
	}
	if c.Residents.ReservedShare != 0.6 {
		t.Errorf("reserved share default = %v", c.Residents.ReservedShare)
	}
	// CORP's gate default applies only to CORP configs.
	corp := Config{Scheduler: scheduler.Config{Scheme: scheduler.CORP}}.withDefaults()
	if corp.Scheduler.Corp.Pth != 0.7 {
		t.Errorf("CORP Pth default = %v", corp.Scheduler.Corp.Pth)
	}
	dra := Config{Scheduler: scheduler.Config{Scheme: scheduler.DRA}}.withDefaults()
	if dra.Scheduler.Corp.Pth != 0 {
		t.Error("non-CORP configs must not set the CORP gate")
	}
}

func TestMoreJobsMoreLoad(t *testing.T) {
	few, err := Run(Config{
		NumPMs: 10, NumVMs: 40, NumJobs: 30, Seed: 5,
		Scheduler: scheduler.Config{Scheme: scheduler.RCCR, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(Config{
		NumPMs: 10, NumVMs: 40, NumJobs: 150, Seed: 5,
		Scheduler: scheduler.Config{Scheme: scheduler.RCCR, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	fewPlaced := few.PlacedOpportunistic + few.PlacedFresh
	manyPlaced := many.PlacedOpportunistic + many.PlacedFresh
	if manyPlaced <= fewPlaced {
		t.Errorf("more jobs should place more: %d vs %d", manyPlaced, fewPlaced)
	}
	// Cluster-wide utilization rises with served short-job demand.
	if many.ClusterOverall <= few.ClusterOverall {
		t.Errorf("cluster utilization should rise with load: %.4f vs %.4f",
			many.ClusterOverall, few.ClusterOverall)
	}
}

func BenchmarkRunCORPSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(small(scheduler.CORP, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunRCCRSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(small(scheduler.RCCR, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMixedWorkloadCooperation(t *testing.T) {
	cfg := small(scheduler.CORP, 9)
	cfg.LongJobs = 15
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.LongPlaced+r.LongUnplaced != 15 {
		t.Errorf("long accounting: %d + %d != 15", r.LongPlaced, r.LongUnplaced)
	}
	if r.LongPlaced == 0 {
		t.Error("no long jobs placed")
	}
	// Short jobs still get served alongside the long population.
	if r.PlacedOpportunistic+r.PlacedFresh == 0 {
		t.Error("no short jobs placed in mixed run")
	}
	if r.Fairness <= 0 || r.Fairness > 1 {
		t.Errorf("fairness = %v", r.Fairness)
	}
	if r.ResponseP95 < r.ResponseP50 {
		t.Errorf("P95 %d < P50 %d", r.ResponseP95, r.ResponseP50)
	}
}

func TestMixedWorkloadGrowsOpportunisticPool(t *testing.T) {
	// With long jobs present, the harvested pool is bigger, so an
	// opportunistic scheme should place at least as many jobs that way.
	base := small(scheduler.RCCR, 11)
	withLong := base
	withLong.LongJobs = 20
	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(withLong)
	if err != nil {
		t.Fatal(err)
	}
	if b.LongPlaced == 0 {
		t.Fatal("no long jobs placed")
	}
	if b.PlacedOpportunistic < a.PlacedOpportunistic-3 {
		t.Errorf("long jobs should not shrink opportunistic placement: %d vs %d",
			b.PlacedOpportunistic, a.PlacedOpportunistic)
	}
}

func TestResponsePercentilesConsistent(t *testing.T) {
	r, err := Run(small(scheduler.RCCR, 12))
	if err != nil {
		t.Fatal(err)
	}
	if r.SLO.Finished > 0 {
		if r.ResponseP50 <= 0 {
			t.Error("P50 missing despite finished jobs")
		}
		if float64(r.ResponseP50) > r.MeanResponseSlots*3 {
			t.Errorf("P50 %d wildly above mean %.1f", r.ResponseP50, r.MeanResponseSlots)
		}
	}
}

func TestTimelineRecording(t *testing.T) {
	cfg := small(scheduler.RCCR, 13)
	cfg.RecordTimeline = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Timeline) != r.Slots {
		t.Fatalf("timeline has %d points for %d slots", len(r.Timeline), r.Slots)
	}
	sawRunning := false
	for i, p := range r.Timeline {
		if p.Slot != i {
			t.Fatalf("point %d has slot %d", i, p.Slot)
		}
		if p.ShortUtil < 0 || p.ShortUtil > 1.000001 || p.ClusterUtil < 0 || p.ClusterUtil > 1.000001 {
			t.Fatalf("point %d utilization out of range: %+v", i, p)
		}
		if p.UnusedCPU < 0 || p.OppInUseCPU < 0 {
			t.Fatalf("point %d negative resources: %+v", i, p)
		}
		if p.RunningShort > 0 {
			sawRunning = true
		}
	}
	if !sawRunning {
		t.Error("timeline never saw a running job")
	}
	// Off by default.
	plain, err := Run(small(scheduler.RCCR, 13))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Timeline != nil {
		t.Error("timeline recorded without the flag")
	}
}

func TestRunManyMatchesSequential(t *testing.T) {
	cfgs := []Config{
		small(scheduler.RCCR, 31),
		small(scheduler.DRA, 32),
		small(scheduler.CloudScale, 33),
	}
	par, err := RunMany(cfgs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		seq, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if par[i] == nil {
			t.Fatalf("run %d missing", i)
		}
		if par[i].Overall != seq.Overall || par[i].SLORate != seq.SLORate ||
			par[i].PredictionErrorRate != seq.PredictionErrorRate {
			t.Errorf("run %d diverges: parallel %+v vs sequential %+v", i, par[i], seq)
		}
	}
}

func TestRunManyEmptyAndErrors(t *testing.T) {
	res, err := RunMany(nil, 4)
	if err != nil || len(res) != 0 {
		t.Errorf("empty RunMany = (%v, %v)", res, err)
	}
	bad := small(scheduler.RCCR, 1)
	bad.Scheduler.Scheme = scheduler.Scheme(99)
	good := small(scheduler.DRA, 1)
	res, err = RunMany([]Config{bad, good}, 2)
	if err == nil {
		t.Fatal("expected error from bad config")
	}
	if res[0] != nil {
		t.Error("failed run should have nil result")
	}
	if res[1] == nil {
		t.Error("good run should still complete")
	}
}

func TestExplicitJobsDriveTheRun(t *testing.T) {
	jobs, err := trace.GenerateShortJobs(trace.Config{Seed: 40, NumJobs: 25})
	if err != nil {
		t.Fatal(err)
	}
	// Push one arrival far past the default span: the horizon must widen.
	jobs[len(jobs)-1].Arrival = 400
	cfg := small(scheduler.RCCR, 40)
	cfg.ExplicitJobs = jobs
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumJobs != 25 {
		t.Errorf("NumJobs = %d, want 25 (explicit)", r.NumJobs)
	}
	if r.Slots < 400+90+150 {
		t.Errorf("horizon %d not widened for late arrival", r.Slots)
	}
	placed := r.PlacedOpportunistic + r.PlacedFresh
	if placed+r.NeverPlaced != 25 {
		t.Errorf("accounting: %d + %d != 25", placed, r.NeverPlaced)
	}
	// The caller's specs must not be mutated (arrival offset on copies).
	if jobs[0].Arrival >= 90 {
		t.Error("explicit job arrival mutated by the run")
	}
}

func TestExplicitJobsValidated(t *testing.T) {
	spec := func(id job.ID, arrival int) *job.Job {
		return &job.Job{
			ID: id, Arrival: arrival, Duration: 2, SLOFactor: 10,
			Request: resource.Vector{0.4, 1.6, 4}, Usage: []resource.Vector{{0.2, 0.8, 2}},
		}
	}
	for _, tc := range []struct {
		name, want string
		jobs       []*job.Job
	}{
		{"invalid spec", "non-positive duration", []*job.Job{{ID: 1}}},
		// Non-adjacent repeats, as trace.ReadCSV emits for a file whose rows
		// repeat a job_id: a placement of ID 7 could attach to either.
		{"duplicate ID", "duplicate ID 7", []*job.Job{spec(7, 0), spec(8, 1), spec(7, 2)}},
	} {
		cfg := small(scheduler.RCCR, 41)
		cfg.ExplicitJobs = tc.jobs
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

func TestOracleUpperBound(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs")
	}
	corp, err := Run(small(scheduler.CORP, 17))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Run(small(scheduler.Oracle, 17))
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Scheme != "Oracle" {
		t.Fatalf("scheme = %q", oracle.Scheme)
	}
	// Perfect foresight: the oracle's prediction error rate must be far
	// below CORP's (its only "errors" are the conservative zero-bias).
	if oracle.PredictionErrorRate >= corp.PredictionErrorRate {
		t.Errorf("oracle error rate %.3f should beat CORP %.3f",
			oracle.PredictionErrorRate, corp.PredictionErrorRate)
	}
	// And its utilization should be at least in CORP's neighbourhood.
	if oracle.Overall < corp.Overall-0.05 {
		t.Errorf("oracle utilization %.3f far below CORP %.3f",
			oracle.Overall, corp.Overall)
	}
}

// TestRunSurfacesDNNTrainErrors checks the Result plumbing for the CORP
// brain's rejected-sample counter: a healthy run must report zero (the
// Observe path only produces well-formed samples), and non-CORP schemes
// must also report zero rather than garbage.
func TestRunSurfacesDNNTrainErrors(t *testing.T) {
	for _, sc := range []scheduler.Scheme{scheduler.CORP, scheduler.RCCR, scheduler.Oracle} {
		r, err := Run(small(sc, 3))
		if err != nil {
			t.Fatal(err)
		}
		if r.DNNTrainErrors != 0 {
			t.Errorf("%v: DNNTrainErrors = %d, want 0", sc, r.DNNTrainErrors)
		}
	}
}

// TestRunAllocationCountIsExact pins Run's heap allocation count as a
// property of the program, not of timing: after one warm run, which builds
// and caches the workload snapshot and CORP's history, ten more runs of the
// same small CORP config at Workers 1 must each allocate exactly as many
// times. A run that allocated through a pool (encoding/json's encoders, for
// one) would not hold this, because whether a pooled buffer is reused
// depends on when the collector last ran.
//
// The count is read off the memory profile at a sampling rate of one, as
// the allocations whose stack passes through Run, with the collector held
// off inside each run and one P. MemStats.Mallocs would also count the
// runtime's own work that falls inside a run (a cycle's sudog, the
// scavenger's timer heap, a new thread's stacks), and a collector running
// inside Run charges an assist's sudog to Run's stack; with one P every
// allocation goes through the one cache whose sampling countdown the warm
// run drained at the new rate. The runtime.typeAssert frames are left out
// because the runtime builds a type-assertion cache on about one slow-path
// assertion in 1024, chosen at random.
func TestRunAllocationCountIsExact(t *testing.T) {
	cfg := small(scheduler.CORP, 9)
	cfg.NumPMs, cfg.NumVMs, cfg.NumJobs = 4, 12, 40
	cfg.Warmup, cfg.ArrivalSpan, cfg.Drain = 30, 20, 40
	cfg.Clock = &VirtualClock{StepMicros: 50}
	cfg.Workers = 1
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 10)
	for i := range counts {
		before := allocsThroughRun()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		counts[i] = allocsThroughRun() - before
	}
	for _, n := range counts[1:] {
		if n != counts[0] {
			t.Fatalf("allocation counts of ten warm runs differ: %v", counts)
		}
	}
	t.Logf("%d allocations a run", counts[0])
}

// allocsThroughRun sums the memory profile's allocation counts over the
// stacks that pass through Run and not through runtime.typeAssert. The
// profile shows what the last completed collector cycles published, so
// three cycles run first.
func allocsThroughRun() int64 {
	for range 3 {
		runtime.GC()
	}
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	var sum int64
	for _, r := range recs[:n] {
		through, cache := false, false
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			through = through || f.Function == "repro/internal/sim.Run"
			cache = cache || f.Function == "runtime.typeAssert"
			if !more {
				break
			}
		}
		if through && !cache {
			sum += r.AllocObjects
		}
	}
	return sum
}
