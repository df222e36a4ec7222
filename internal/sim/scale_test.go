package sim

import (
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/trace"
)

// scaleProfileConfig is bench/'s rccr-scale5k unit at seed 1: the
// ProfileScale world (5000 PMs / 20000 VMs) under a 350k-job RCCR burst.
// Jobs are deliberately small (VMCapacity-scaled well below the real VM
// carve) and long (MeanDuration at the 30-slot short-job cap, arriving over
// 60 slots), so at peak well over 100k short jobs are in flight. RCCR keeps
// the per-VM predictors cheap; CORP's per-VM DNNs at 20000 VMs would
// measure the predictor fleet, not the simulator core.
func scaleProfileConfig() Config {
	return Config{
		Profile: cluster.ProfileScale,
		NumJobs: 350_000, Seed: 1,
		Warmup: 30, ArrivalSpan: 60, Drain: 90,
		Scheduler: scheduler.Config{Scheme: scheduler.RCCR, Seed: 1},
		Jobs:      trace.Config{MeanDuration: 30, VMCapacity: resource.Vector{0.5, 2, 8}},
		Clock:     &VirtualClock{StepMicros: 50},
		Workers:   1,
	}
}

// withChurn adds what bench/'s rccr-scale5k-churn runs under: VM crashes,
// resident surges and long jobs.
func withChurn(cfg Config, longJobs int) Config {
	cfg.Faults = faults.Config{Seed: cfg.Seed, VMCrashProb: 5e-4, SurgeProb: 2e-3}
	cfg.LongJobs = longJobs
	return cfg
}

// TestScaleProfileConcurrency measures the scale-profile scenario's shape:
// peak short jobs in flight (running + queued) must clear 100k, the regime
// the profile exists to exercise. The full run takes ~8 s and half a
// gigabyte, so the test only runs when CORP_SCALE=1 is set.
func TestScaleProfileConcurrency(t *testing.T) {
	if os.Getenv("CORP_SCALE") == "" {
		t.Skip("set CORP_SCALE=1 to run the full scale-profile measurement")
	}
	cfg := scaleProfileConfig()
	cfg.RecordTimeline = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peak, peakSlot := 0, 0
	for _, p := range res.Timeline {
		if inFlight := p.RunningShort + p.Queued; inFlight > peak {
			peak, peakSlot = inFlight, p.Slot
		}
	}
	t.Logf("scale profile: %d jobs over %d slots; peak in-flight %d (slot %d), placed opp %d fresh %d, never %d",
		res.NumJobs, res.Slots, peak, peakSlot, res.PlacedOpportunistic, res.PlacedFresh, res.NeverPlaced)
	if peak < 100_000 {
		t.Errorf("peak in-flight short jobs = %d, want >= 100000", peak)
	}
}

// benchWarmRun times Run(cfg) against a snapshot prepared off the timer —
// what every unit after the first costs in bench/ and inside a sweep. The
// snapshot's one lazily built part, (for CORP) the pretraining history, is
// built off the timer too, as bench/ does, so a one-iteration run measures
// the run and not its set-up.
func benchWarmRun(b *testing.B, cfg Config) {
	snapshot, err := PrepareWorkload(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if cfg.Scheduler.Scheme == scheduler.CORP {
		if _, _, err := snapshot.History(); err != nil {
			b.Fatal(err)
		}
	}
	cfg.Prepared = snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleRCCR is the calm 20000-VM unit; `make profile-scale`
// profiles it.
func BenchmarkScaleRCCR(b *testing.B) { benchWarmRun(b, scaleProfileConfig()) }

// BenchmarkScaleRCCRChurn is bench/'s rccr-scale5k-churn unit: the same
// fleet and arrival rate over two thirds of the horizon, under churn.
func BenchmarkScaleRCCRChurn(b *testing.B) {
	cfg := withChurn(scaleProfileConfig(), 2000)
	cfg.NumJobs, cfg.ArrivalSpan, cfg.Drain = 175_000, 30, 60
	benchWarmRun(b, cfg)
}

// BenchmarkScaleCORP is the paper's own scheme on the same 20000-VM unit:
// 60000 online-trained per-VM forecasts a slot, minutes where RCCR takes
// seconds, so it only runs when CORP_SCALE=1 is set (`make bench` skips it;
// `make profile-scale SCALE_BENCH=BenchmarkScaleCORP` sets it).
func BenchmarkScaleCORP(b *testing.B) {
	if os.Getenv("CORP_SCALE") == "" {
		b.Skip("set CORP_SCALE=1 to run the 20000-VM CORP unit (minutes)")
	}
	cfg := scaleProfileConfig()
	cfg.Scheduler.Scheme = scheduler.CORP
	benchWarmRun(b, cfg)
}
