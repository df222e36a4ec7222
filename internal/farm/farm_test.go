package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// quickCfg is a tiny runnable config for protocol-level tests (the run
// function is stubbed; the config only needs distinct key material).
func quickCfg(seed int64) sim.Config {
	return sim.Config{
		NumPMs: 4, NumVMs: 8, NumJobs: 10, Seed: seed,
		Warmup: 5, ArrivalSpan: 5, Drain: 10,
		Scheduler: scheduler.Config{Scheme: scheduler.RCCR, Seed: seed},
		Workers:   1,
	}
}

func TestSpecRoundTrip(t *testing.T) {
	cfg := quickCfg(3)
	cfg.Clock = &sim.VirtualClock{StepMicros: 150}
	spec, err := EncodeSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spec.VirtualClockStep != 150 || spec.Config.Clock != nil {
		t.Fatalf("virtual clock not factored out: %+v", spec)
	}
	enc, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back RunSpec
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	got := back.DecodeConfig()
	vc, ok := got.Clock.(*sim.VirtualClock)
	if !ok || vc.StepMicros != 150 {
		t.Fatalf("clock not reconstructed: %#v", got.Clock)
	}
	got.Clock = nil
	cfg.Clock = nil
	if !reflect.DeepEqual(got, cfg) {
		t.Fatalf("config did not round-trip:\n got %+v\nwant %+v", got, cfg)
	}
}

func TestSpecRejectsNonSerializable(t *testing.T) {
	cfg := quickCfg(1)
	cfg.Clock = fakeClock{}
	if _, err := EncodeSpec(cfg); err == nil {
		t.Error("foreign clock must be rejected")
	}
	cfg = quickCfg(1)
	if snap, err := sim.PrepareWorkload(cfg); err == nil {
		cfg.Prepared = snap
		if _, err := EncodeSpec(cfg); err == nil {
			t.Error("prepared snapshot must be rejected")
		}
	}
}

type fakeClock struct{}

func (fakeClock) Now() float64 { return 0 }

func TestJobKeys(t *testing.T) {
	specA, _ := EncodeSpec(quickCfg(1))
	specB, _ := EncodeSpec(quickCfg(1))
	keyA, wkA, err := specA.Keys()
	if err != nil {
		t.Fatal(err)
	}
	keyB, _, _ := specB.Keys()
	if keyA != keyB {
		t.Error("identical configs must share a job key")
	}
	// A scheduler-side flag changes the job key but not the workload key:
	// same trace, different run.
	cfgC := quickCfg(1)
	cfgC.Scheduler.Scheme = scheduler.CORP
	specC, _ := EncodeSpec(cfgC)
	keyC, wkC, _ := specC.Keys()
	if keyC == keyA {
		t.Error("different scheme must change the job key")
	}
	if wkC != wkA {
		t.Error("scheme must not change the workload key")
	}
	// A different seed changes both.
	specD, _ := EncodeSpec(quickCfg(2))
	keyD, wkD, _ := specD.Keys()
	if keyD == keyA || wkD == wkA {
		t.Error("different seed must change job and workload keys")
	}
}

// TestResultJSONBitExact: the wire transport must not perturb a single
// bit of any float in sim.Result — the foundation of the farm's
// bit-identical merged figures. Go's encoding/json formats float64 with
// the shortest representation that round-trips exactly.
func TestResultJSONBitExact(t *testing.T) {
	cfg := quickCfg(11)
	cfg.Clock = &sim.VirtualClock{StepMicros: 150}
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Result
	if err := json.Unmarshal(enc, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("result did not round-trip bit-exact:\n got %+v\nwant %+v", &got, want)
	}
}

// echoRun fabricates a deterministic result from the config without
// simulating — protocol tests only care about routing.
func echoRun(cfg sim.Config) (*sim.Result, error) {
	return &sim.Result{NumJobs: int(cfg.Seed), Scheme: cfg.Scheduler.Scheme.String()}, nil
}

// startWorkers runs n in-process workers against the dispatcher and
// returns a stop function that waits for their clean shutdown.
func startWorkers(t *testing.T, d *Dispatcher, n int, run func(sim.Config) (*sim.Result, error)) (stop func()) {
	t.Helper()
	srv := httptest.NewServer(d.Handler())
	done := make(chan error, n)
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < n; i++ {
		w := &Worker{
			BaseURL: srv.URL, ID: fmt.Sprintf("w%d", i),
			Poll: 5 * time.Millisecond, Heartbeat: 20 * time.Millisecond,
			Run: run, Client: srv.Client(),
		}
		go func() { done <- w.Serve(ctx) }()
	}
	return func() {
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

func TestFarmPositionalAssemblyAndDedup(t *testing.T) {
	d := NewDispatcher(Config{})
	defer startWorkers(t, d, 3, echoRun)()

	// Sixteen positions over four distinct configs: dedup must collapse
	// them to four jobs while keeping positional results.
	var cfgs []sim.Config
	for i := 0; i < 16; i++ {
		cfgs = append(cfgs, quickCfg(int64(i%4)))
	}
	results, err := d.RunBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r == nil || r.NumJobs != i%4 {
			t.Fatalf("result %d misplaced: %+v", i, r)
		}
	}
	c := d.Counters()
	if c.Jobs != 4 || c.DedupHits != 12 || c.Submitted != 16 {
		t.Errorf("dedup accounting wrong: %+v", c)
	}
	if c.Completed != 4 {
		t.Errorf("deduped job ran more than once: %+v", c)
	}
	// The four configs differ only in seed, so each has its own workload.
	if c.DistinctWorkloads != 4 {
		t.Errorf("DistinctWorkloads = %d, want 4", c.DistinctWorkloads)
	}

	// A second batch reuses finished jobs without re-running them.
	results2, err := d.RunBatch(cfgs[:4])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results2 {
		if r != results[i] {
			t.Errorf("batch 2 result %d not shared with batch 1", i)
		}
	}
	if c2 := d.Counters(); c2.Completed != 4 || c2.DedupHits != 16 {
		t.Errorf("cross-batch dedup wrong: %+v", c2)
	}
}

func TestFarmRetriesFailuresThenGivesUp(t *testing.T) {
	var calls atomic.Int64
	flaky := func(cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed == 1 && calls.Add(1) < 3 {
			return nil, errors.New("transient")
		}
		if cfg.Seed == 2 {
			panic("always broken")
		}
		return echoRun(cfg)
	}
	d := NewDispatcher(Config{MaxAttempts: 3})
	defer startWorkers(t, d, 2, flaky)()

	results, err := d.RunBatch([]sim.Config{quickCfg(0), quickCfg(1), quickCfg(2)})
	if err == nil {
		t.Fatal("permanently failing job must surface an error")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") || !strings.Contains(err.Error(), "always broken") {
		t.Errorf("error does not describe the failure: %v", err)
	}
	if results[0] == nil || results[1] == nil {
		t.Error("healthy and flaky-then-ok runs must still complete")
	}
	if results[2] != nil {
		t.Error("failed job must leave a nil slot")
	}
	c := d.Counters()
	if c.Failed != 1 || c.Completed != 2 {
		t.Errorf("completion accounting wrong: %+v", c)
	}
	// Seed 1 failed twice before succeeding; seed 2 was requeued twice
	// before its third attempt failed it permanently.
	if c.Retries != 4 {
		t.Errorf("Retries = %d, want 4", c.Retries)
	}
}

func TestFarmLeaseExpiryRequeues(t *testing.T) {
	d := NewDispatcher(Config{Lease: time.Minute, MaxAttempts: 3})
	now := time.Unix(1000, 0)
	d.now = func() time.Time { return now }

	b, err := d.Submit([]sim.Config{quickCfg(7)})
	if err != nil {
		t.Fatal(err)
	}
	job, ok, _ := d.Pull("dead-worker")
	if !ok {
		t.Fatal("expected a lease")
	}
	// The worker vanishes. Within the lease the job stays leased…
	if _, ok, _ := d.Pull("live-worker"); ok {
		t.Fatal("job double-leased inside the lease window")
	}
	// …after the deadline the next pull reaps and re-leases it.
	now = now.Add(2 * time.Minute)
	job2, ok, _ := d.Pull("live-worker")
	if !ok || job2.ID != job.ID {
		t.Fatalf("expired job not re-leased: ok=%v job=%+v", ok, job2)
	}
	if c := d.Counters(); c.Retries != 1 {
		t.Errorf("Retries = %d, want 1", c.Retries)
	}
	// Heartbeats extend leases: a beat 30s into the lease pushes the
	// deadline out, so a poll past the original deadline (but inside the
	// extended one) finds nothing to reap.
	now = now.Add(30 * time.Second)
	d.Heartbeat(HeartbeatRequest{Worker: "live-worker", IDs: []int64{job2.ID}, Cache: workload.Stats{}})
	now = now.Add(50 * time.Second)
	if _, ok, _ := d.Pull("third-worker"); ok {
		t.Fatal("heartbeat did not extend the lease")
	}
	// The late result from the dead worker is accepted (first valid
	// completion wins; either attempt's result is bit-identical).
	res, _ := echoRun(quickCfg(7))
	if err := d.SubmitResult("dead-worker", job.ID, job.Key, res, "", 1); err != nil {
		t.Fatal(err)
	}
	results, err := b.Wait(nil)
	if err != nil || results[0] == nil {
		t.Fatalf("batch did not complete: %v %v", results, err)
	}
	// The live worker's duplicate submission is ignored without error.
	if err := d.SubmitResult("live-worker", job2.ID, job2.Key, res, "", 1); err != nil {
		t.Fatal(err)
	}
	if c := d.Counters(); c.Completed != 1 {
		t.Errorf("Completed = %d, want 1", c.Completed)
	}
}

func TestFarmAbandonedJobFailsAfterMaxAttempts(t *testing.T) {
	d := NewDispatcher(Config{Lease: time.Minute, MaxAttempts: 2})
	now := time.Unix(0, 0)
	d.now = func() time.Time { return now }
	b, err := d.Submit([]sim.Config{quickCfg(9)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok, _ := d.Pull("w"); !ok {
			t.Fatalf("pull %d: no lease", i)
		}
		now = now.Add(5 * time.Minute)
	}
	// Attempts exhausted: the next pull reaps it into permanent failure.
	if _, ok, _ := d.Pull("w"); ok {
		t.Fatal("job leased beyond MaxAttempts")
	}
	results, err := b.Wait(nil)
	if err == nil || !strings.Contains(err.Error(), "abandoned after 2 attempts") {
		t.Fatalf("want abandonment error, got %v", err)
	}
	if results[0] != nil {
		t.Error("abandoned job must leave a nil slot")
	}
}

func TestFarmProgressAndStatus(t *testing.T) {
	var last atomic.Int64
	d := NewDispatcher(Config{Progress: func(done, total int) {
		if total != 3 {
			t.Errorf("progress total = %d, want 3", total)
		}
		last.Store(int64(done))
	}})
	defer startWorkers(t, d, 2, echoRun)()
	if _, err := d.RunBatch([]sim.Config{quickCfg(0), quickCfg(1), quickCfg(2)}); err != nil {
		t.Fatal(err)
	}
	if last.Load() != 3 {
		t.Errorf("progress ended at %d, want 3", last.Load())
	}
	st := d.Status()
	if st.Pending != 0 || st.Leased != 0 {
		t.Errorf("drained queue reports depth: %+v", st)
	}
	if st.MeanRunMS <= 0 {
		t.Errorf("mean run duration not tracked: %+v", st)
	}
	if len(st.Workers) == 0 {
		t.Errorf("no workers tracked: %+v", st)
	}
}

// TestFarmOverHTTPRunsRealSim drives one real simulation through the full
// HTTP stack and compares it against an in-process run of the same config
// — the protocol must be invisible.
func TestFarmOverHTTPRunsRealSim(t *testing.T) {
	cfg := quickCfg(5)
	// Inject the virtual clock so the overhead metric — the one
	// wall-clock-derived field — is deterministic and comparable.
	cfg.Clock = &sim.VirtualClock{StepMicros: 150}
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(Config{})
	defer startWorkers(t, d, 1, nil)()
	results, err := d.RunBatch([]sim.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results[0], want) {
		t.Fatalf("farm run differs from in-process run:\n got %+v\nwant %+v", results[0], want)
	}
}

// TestFarmRejectsOversizedBody: a POST body past maxBodyBytes is cut off
// with 413 instead of being buffered, and the dispatcher keeps serving.
func TestFarmRejectsOversizedBody(t *testing.T) {
	d := NewDispatcher(Config{})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	body := `{"worker":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	resp, err := srv.Client().Post(srv.URL+"/v1/pull", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized pull: status %d, want 413", resp.StatusCode)
	}
	resp, err = srv.Client().Post(srv.URL+"/v1/pull", "application/json", strings.NewReader(`{"worker":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pull after oversized request: status %d, want 200", resp.StatusCode)
	}
}

// TestFarmDuplicateSubmitDeterminismAlarm: a second submission for a
// finished job is silent when it matches the stored result, and a
// determinism alarm when the job runs under the virtual clock and the
// bytes differ. Without the virtual clock the overhead metric is wall
// time, so differing duplicates are expected and stay silent.
func TestFarmDuplicateSubmitDeterminismAlarm(t *testing.T) {
	var logged []string
	d := NewDispatcher(Config{Logf: func(format string, a ...any) {
		logged = append(logged, fmt.Sprintf(format, a...))
	}})
	det, wall := quickCfg(1), quickCfg(2)
	det.Clock = &sim.VirtualClock{StepMicros: 150}
	if _, err := d.Submit([]sim.Config{det, wall}); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		job, ok, _ := d.Pull("w0")
		if !ok {
			t.Fatal("no job to pull")
		}
		before := d.Counters().DeterminismAlarms
		first := &sim.Result{Scheme: "RCCR", NumJobs: 10, Overall: 0.5}
		if err := d.SubmitResult("w0", job.ID, job.Key, first, "", 1); err != nil {
			t.Fatal(err)
		}
		same := *first
		if err := d.SubmitResult("w1", job.ID, job.Key, &same, "", 1); err != nil {
			t.Fatal(err)
		}
		if c := d.Counters(); c.DeterminismAlarms != before {
			t.Fatalf("identical duplicate raised an alarm: %+v", c)
		}
		tampered := *first
		tampered.Overall = 0.5000001
		if err := d.SubmitResult("w1", job.ID, job.Key, &tampered, "", 1); err != nil {
			t.Fatal(err)
		}
		want := before
		if job.Spec.VirtualClockStep != 0 {
			want++
		}
		if c := d.Counters(); c.DeterminismAlarms != want || c.Completed == 0 {
			t.Fatalf("virtual clock step %v: alarms = %d, want %d (%+v)", job.Spec.VirtualClockStep, c.DeterminismAlarms, want, c)
		}
	}
	if got := d.Status().Counters.DeterminismAlarms; got != 1 {
		t.Fatalf("status reports %d determinism alarms, want 1", got)
	}
	alarms := 0
	for _, l := range logged {
		if strings.Contains(l, "DETERMINISM ALARM") {
			alarms++
		}
	}
	if alarms != 1 {
		t.Fatalf("logged %d determinism alarms, want 1: %q", alarms, logged)
	}
}

// FuzzRunSpecKeys: a spec's job and workload keys are content addresses,
// so they must not move when the spec crosses the wire — encode → JSON →
// decode → Keys() is stable for every config the dispatcher can be handed,
// and the decoded config addresses the same workload. Float fields take
// the fuzzer's raw values: a NaN or infinity makes the spec unencodable,
// which Keys must report as an error, never a panic or a silent key.
func FuzzRunSpecKeys(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(8), uint16(10), uint8(1), uint8(0), 0.0, 0.0, 0.0, 0.0, uint8(0), false)
	f.Add(int64(11), uint8(0), uint8(0), uint16(300), uint8(0), uint8(1), 150.0, 0.01, 0.02, 0.7, uint8(8), true)
	f.Add(int64(-3), uint8(2), uint8(1), uint16(0), uint8(3), uint8(2), -0.0, 1e-300, math.Inf(1), math.NaN(), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, pms, vms uint8, jobs uint16, scheme, profile uint8,
		clockStep, crashProb, surgeProb, pth float64, longJobs uint8, hetero bool) {
		cfg := sim.Config{
			Profile: cluster.Profile(profile % 3), NumPMs: int(pms), NumVMs: int(vms),
			Heterogeneous: hetero, NumJobs: int(jobs), Seed: seed, LongJobs: int(longJobs),
			Scheduler: scheduler.Config{Scheme: scheduler.Scheme(scheme % 5), Seed: seed},
			Faults:    faults.Config{Seed: seed, VMCrashProb: crashProb, SurgeProb: surgeProb},
		}
		cfg.Scheduler.Corp.Pth = pth
		if clockStep != 0 {
			cfg.Clock = &sim.VirtualClock{StepMicros: clockStep}
		}
		spec, err := EncodeSpec(cfg)
		if err != nil {
			t.Fatalf("EncodeSpec rejected a distributable config: %v", err)
		}
		jobKey, workloadKey, err := spec.Keys()
		if err != nil {
			return // invalid cluster shape or a non-finite float: reported, not keyed
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("Keys succeeded on a spec that does not marshal: %v", err)
		}
		var back RunSpec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("spec does not decode from its own encoding: %v\n%s", err, enc)
		}
		jobKey2, workloadKey2, err := back.Keys()
		if err != nil {
			t.Fatalf("decoded spec has no keys: %v\n%s", err, enc)
		}
		if jobKey2 != jobKey || workloadKey2 != workloadKey {
			t.Fatalf("keys moved across the wire: job %.12s → %.12s, workload %.12s → %.12s\n%s",
				jobKey, jobKey2, workloadKey, workloadKey2, enc)
		}
		if wk, err := sim.WorkloadKey(back.DecodeConfig()); err != nil || wk != workloadKey {
			t.Fatalf("decoded config addresses workload %.12s (%v), want %.12s", wk, err, workloadKey)
		}
	})
}

// TestWorkerServeReturnsWhenDispatcherHangs: a dispatcher that accepts
// requests and never answers must not hold a cancelled worker. Serve waits
// for its heartbeat goroutine before returning, so a prompt return with a
// heartbeat wedged in the handler proves that goroutine gone too.
func TestWorkerServeReturnsWhenDispatcherHangs(t *testing.T) {
	release := make(chan struct{})
	arrived := make(chan string)
	srv := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		select {
		case arrived <- r.URL.Path:
		case <-release:
		}
		<-release
	}))
	defer srv.Close()
	defer close(release) // before Close, which waits for the handlers
	w := &Worker{BaseURL: srv.URL, ID: "w", Heartbeat: 5 * time.Millisecond, Client: srv.Client()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Serve(ctx) }()
	for wedged := map[string]bool{}; !wedged["/v1/pull"] || !wedged["/v1/heartbeat"]; {
		wedged[<-arrived] = true
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Serve = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Serve still blocked a second after its context was cancelled")
	}
}
