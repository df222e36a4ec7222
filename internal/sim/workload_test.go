package sim

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/scheduler"
	"repro/internal/trace"
	"repro/internal/workload"
)

// workloadCfg is a mixed-workload run (long jobs, heterogeneous VMs) small
// enough to repeat per scheme; the VirtualClock makes whole Results
// comparable.
func workloadCfg(sc scheduler.Scheme, seed int64) Config {
	return Config{
		NumPMs: 6, NumVMs: 24, NumJobs: 40, Seed: seed,
		Heterogeneous: true,
		LongJobs:      4,
		Warmup:        40, ArrivalSpan: 30, Drain: 60,
		Scheduler: scheduler.Config{Scheme: sc, Seed: seed},
		Clock:     &VirtualClock{StepMicros: 50},
		Workers:   1,
	}
}

// private returns cfg driven by a snapshot of its own, built by
// workload.Build outside the process-wide cache, so the run shares nothing
// with any other.
func private(t *testing.T, cfg Config) Config {
	t.Helper()
	_, params, err := clusterFor(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Prepared, err = workload.Build(params); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestPreparedMatchesInline pins the tentpole's equivalence contract at
// the single-run level: for every scheme, a run driven by a private build
// and a run driven by the cache's snapshot (PrepareWorkload) produce
// identical Results.
func TestPreparedMatchesInline(t *testing.T) {
	schemes := append(scheduler.Schemes(), scheduler.Oracle)
	for _, sc := range schemes {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			want, err := Run(private(t, workloadCfg(sc, 7)))
			if err != nil {
				t.Fatal(err)
			}
			snap, err := PrepareWorkload(workloadCfg(sc, 7))
			if err != nil {
				t.Fatal(err)
			}
			cfg := workloadCfg(sc, 7)
			cfg.Prepared = snap
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("prepared run diverged from a private build:\n  private:  %+v\n  prepared: %+v", want, got)
			}
		})
	}
}

// TestPreparedCacheMatchesInline repeats the pin through the process-wide
// cache path (snapshot fetched by Run itself rather than supplied).
func TestPreparedCacheMatchesInline(t *testing.T) {
	cfg := workloadCfg(scheduler.CORP, 13)
	want, err := Run(private(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("cache-served run diverged from a private build")
	}
}

// TestPreparedMatchesInlineFaulted repeats the pin under fault injection:
// evictions, retries and surge slots must also match exactly, and the
// shared snapshot must survive a faulted run unmodified.
func TestPreparedMatchesInlineFaulted(t *testing.T) {
	mk := func() Config {
		cfg := workloadCfg(scheduler.CORP, 11)
		cfg.Faults = faults.Config{
			Seed:         11,
			VMCrashProb:  0.01,
			MeanDowntime: 12,
			SurgeProb:    0.02,
		}
		return cfg
	}
	want, err := Run(private(t, mk()))
	if err != nil {
		t.Fatal(err)
	}
	if want.Recovery.VMCrashes == 0 {
		t.Fatal("fault profile injected no crashes")
	}
	snap, err := PrepareWorkload(mk())
	if err != nil {
		t.Fatal(err)
	}
	cfg := mk()
	cfg.Prepared = snap
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("faulted prepared run diverged from a private build")
	}
	// The faulted run must not have written through the snapshot: a second
	// prepared run sees identical inputs.
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, again) {
		t.Error("second prepared run diverged — snapshot was mutated")
	}
}

// TestPreparedKeyMismatch pins the fail-fast: a snapshot prepared for a
// different workload must be rejected, not silently simulated.
func TestPreparedKeyMismatch(t *testing.T) {
	snap, err := PrepareWorkload(workloadCfg(scheduler.DRA, 7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloadCfg(scheduler.DRA, 8) // different seed → different key
	cfg.Prepared = snap
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("expected key-mismatch error, got %v", err)
	}
}

// TestConcurrentRunsSharedSnapshot is the -race pin for read-only sharing:
// many concurrent runs — all four schemes, faulted and fault-free — drive
// off one snapshot, and each must reproduce its serial reference exactly.
func TestConcurrentRunsSharedSnapshot(t *testing.T) {
	mk := func(sc scheduler.Scheme, faulted bool) Config {
		cfg := workloadCfg(sc, 21)
		if faulted {
			cfg.Faults = faults.Config{Seed: 21, VMCrashProb: 0.01, MeanDowntime: 12}
		}
		return cfg
	}
	snap, err := PrepareWorkload(mk(scheduler.CORP, false))
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		sc      scheduler.Scheme
		faulted bool
	}
	var variants []variant
	for _, sc := range scheduler.Schemes() {
		variants = append(variants, variant{sc, false}, variant{sc, true})
	}
	want := make([]*Result, len(variants))
	for i, v := range variants {
		cfg := mk(v.sc, v.faulted)
		cfg.Prepared = snap
		if want[i], err = Run(cfg); err != nil {
			t.Fatal(err)
		}
	}

	repeats := 3
	if testing.Short() {
		repeats = 1 // the -race CI target runs -short; one pass suffices there
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(variants)*repeats)
	for r := 0; r < repeats; r++ {
		for i, v := range variants {
			wg.Add(1)
			go func(i int, v variant) {
				defer wg.Done()
				cfg := mk(v.sc, v.faulted)
				cfg.Prepared = snap
				got, err := Run(cfg)
				if err != nil {
					errCh <- err
					return
				}
				if !reflect.DeepEqual(want[i], got) {
					t.Errorf("%s (faulted=%v): concurrent shared-snapshot run diverged", v.sc, v.faulted)
				}
			}(i, v)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestExplicitJobsNotMutated pins the immutability side of the snapshot
// contract on the explicit-trace path: Run must never write its warmup
// offset through caller-owned specs, so the same slice drives repeated
// runs identically.
func TestExplicitJobsNotMutated(t *testing.T) {
	jobs, err := trace.GenerateShortJobs(trace.Config{Seed: 3, NumJobs: 20, ArrivalSpan: 30})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([]int, len(jobs))
	for i, j := range jobs {
		arrivals[i] = j.Arrival
	}
	cfg := workloadCfg(scheduler.DRA, 5)
	cfg.ExplicitJobs = jobs
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if j.Arrival != arrivals[i] {
			t.Fatalf("job %d arrival mutated: %d -> %d", j.ID, arrivals[i], j.Arrival)
		}
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("second explicit-jobs run diverged — specs were mutated")
	}
}

// TestRuntimeArrivalOffset pins that the warmup offset lives on runtime
// state: response times are measured from the offset arrival while the
// spec keeps its generator-relative slot.
func TestRuntimeArrivalOffset(t *testing.T) {
	spec := &job.Job{ID: 1, Arrival: 5, Duration: 2, SLOFactor: 2}
	rt := newRuntime(spec, spec.Arrival+90)
	rt.Finished = 100
	if got := rt.ResponseTime(); got != 100-95+1 {
		t.Errorf("ResponseTime = %d, want %d", got, 100-95+1)
	}
	if spec.Arrival != 5 {
		t.Errorf("spec arrival mutated to %d", spec.Arrival)
	}
}
