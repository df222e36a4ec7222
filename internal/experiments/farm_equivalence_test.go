package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/workload"
)

// startFarm stands up a dispatcher with n in-process workers over real
// HTTP and returns it plus a stop function that asserts clean shutdown.
func startFarm(t *testing.T, cfg farm.Config, n int) (*farm.Dispatcher, func()) {
	t.Helper()
	d := farm.NewDispatcher(cfg)
	srv := httptest.NewServer(d.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		w := &farm.Worker{
			BaseURL: srv.URL, ID: fmt.Sprintf("w%d", i),
			Poll: 10 * time.Millisecond, Heartbeat: 50 * time.Millisecond,
			Client: srv.Client(),
		}
		go func() { done <- w.Serve(ctx) }()
	}
	return d, func() {
		d.Shutdown()
		for i := 0; i < n; i++ {
			if err := <-done; err != nil {
				t.Errorf("worker exit: %v", err)
			}
		}
		cancel()
		srv.Close()
	}
}

// TestFarmCampaignEquivalence is the farm's acceptance gate: the full
// two-profile figure campaign (including the faulted extension figure)
// merged from 1, 2, and 4 local workers over real HTTP is bit-identical
// to the single-process sim.RunMany result — the cached campaign the
// golden and cache-equivalence tests share, which is Campaign(goldenOptions)
// profile by profile. Only the wall-clock overhead figures (fig10/fig14)
// have their Y values exempted — they measure real scheduler wall time and
// differ between any two runs of the same binary, distributed or not (same
// exemption as the cache/core equivalence suites).
func TestFarmCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-campaign equivalence sweep is slow; run without -short")
	}
	o := goldenOptions
	figs, _, err := runCachedCampaign()
	if err != nil {
		t.Fatalf("in-process campaign: %v", err)
	}
	var want []*Figure
	for _, profile := range goldenProfiles {
		want = append(want, figs[profile]...)
	}

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			d, stop := startFarm(t, farm.Config{}, n)
			defer stop()
			fo := o
			fo.RunBatch = d.RunBatch
			got, err := Campaign(fo)
			if err != nil {
				t.Fatalf("farm campaign: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d figures from farm vs %d in-process", len(got), len(want))
			}
			for i := range want {
				compareFigures(t, fmt.Sprintf("farm-w%d", n), got[i], want[i])
			}
			c := d.Counters()
			if c.Failed != 0 || c.Retries != 0 {
				t.Errorf("healthy campaign saw failures/retries: %+v", c)
			}
			if c.DedupHits == 0 || c.Jobs >= c.Submitted {
				t.Errorf("campaign dedup missing (fig06/fig07 share configs): %+v", c)
			}
			t.Logf("workers=%d: %d figures identical; counters %+v", n, len(got), c)
		})
	}
}

// TestFarmWorkerKillRetry: a worker that pulls a job mid-campaign and is
// killed (no submit, no heartbeat — exactly what the dispatcher sees when
// a corpfarmd process dies) must not lose the campaign: its lease expires,
// the job is retried on a healthy worker, and the merged figure is still
// bit-identical to the in-process run.
func TestFarmWorkerKillRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep is slow; run without -short")
	}
	o := Options{Seed: 11, Quick: true}
	want, err := Fig06PredictionError(o)
	if err != nil {
		t.Fatal(err)
	}

	d := farm.NewDispatcher(farm.Config{Lease: 300 * time.Millisecond, MaxAttempts: 3})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Run the campaign driver in the background; the first batch enqueues
	// before any worker exists.
	type out struct {
		fig *Figure
		err error
	}
	resCh := make(chan out, 1)
	go func() {
		fo := o
		fo.RunBatch = d.RunBatch
		fig, err := Fig06PredictionError(fo)
		resCh <- out{fig, err}
	}()

	// The doomed worker pulls one real campaign job and dies with it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok, _ := d.Pull("doomed"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never enqueued a job")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A healthy worker drains the rest — including the abandoned job once
	// its lease expires.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	w := &farm.Worker{
		BaseURL: srv.URL, ID: "healthy",
		Poll: 10 * time.Millisecond, Heartbeat: 50 * time.Millisecond,
		Client: srv.Client(),
	}
	go func() { done <- w.Serve(ctx) }()

	r := <-resCh
	if r.err != nil {
		t.Fatalf("campaign with killed worker: %v", r.err)
	}
	compareFigures(t, "kill-retry", r.fig, want)
	c := d.Counters()
	if c.Retries == 0 {
		t.Error("abandoned lease was never retried")
	}
	if c.Failed != 0 {
		t.Errorf("retry should have rescued the job: %+v", c)
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Errorf("healthy worker exit: %v", err)
	}
}

// TestFarmDedupCounters pins the content-addressed dedup contract: Fig. 6
// and Fig. 7 sweep byte-identical configs, so the dispatcher must enqueue
// their shared work once, and the worker-side snapshot cache must build
// each distinct workload (Params.Key) exactly once per process.
func TestFarmDedupCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep is slow; run without -short")
	}
	workload.Default.Reset()
	base := workload.Default.Stats()

	d, stop := startFarm(t, farm.Config{}, 2)
	defer stop()
	o := Options{Seed: 23, Quick: true, RunBatch: d.RunBatch}
	if _, err := Fig06PredictionError(o); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig07Utilization(o); err != nil {
		t.Fatal(err)
	}

	c := d.Counters()
	// Quick mode: 3 job counts × 4 schemes per figure; Fig. 7 repeats
	// Fig. 6's configs exactly.
	if c.Submitted != 24 || c.Jobs != 12 || c.DedupHits != 12 {
		t.Errorf("dedup accounting wrong: %+v", c)
	}
	if c.Completed != 12 {
		t.Errorf("deduped jobs ran more than once: %+v", c)
	}
	// One workload per job count (seed folds the count in; schemes share).
	if c.DistinctWorkloads != 3 {
		t.Errorf("DistinctWorkloads = %d, want 3", c.DistinctWorkloads)
	}
	st := workload.Default.Stats()
	if builds := st.Misses - base.Misses; builds != uint64(c.DistinctWorkloads) {
		t.Errorf("snapshot builds = %d, want one per distinct workload (%d)",
			builds, c.DistinctWorkloads)
	}
	if st.Hits == base.Hits {
		t.Error("shared workloads recorded no cache hits")
	}
}
