package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/workpool"
)

// Worker is the pull → run → submit loop corpfarmd wraps (tests run it
// in-process against an httptest server). It is deliberately stateless:
// all queue state lives on the dispatcher, so a killed worker resumes
// cleanly on restart — its abandoned leases expire and are retried, and
// its first pull after the restart simply hands it fresh work.
type Worker struct {
	// BaseURL is the dispatcher's address, e.g. "http://127.0.0.1:9090".
	BaseURL string
	// ID names this worker in leases and status reports.
	ID string
	// Slots is the number of concurrent pull→run→submit loops. Zero
	// defaults to 1; the process-wide workpool budget keeps CORP runs'
	// per-kind training goroutines from oversubscribing the machine
	// regardless.
	Slots int
	// Poll is the idle re-poll interval. Zero defaults to 500ms.
	Poll time.Duration
	// Heartbeat is the lease-extension interval. Zero defaults to 5s;
	// it must stay well under the dispatcher's lease duration.
	Heartbeat time.Duration
	// Run executes one simulation; nil defaults to sim.Run. Panics are
	// contained per attempt and submitted as run failures.
	Run func(sim.Config) (*sim.Result, error)
	// Client is the HTTP client; nil defaults to one that gives up on a
	// request after a minute (the dispatcher's own write timeout).
	Client *http.Client
	// Logf, when non-nil, receives worker event logs.
	Logf func(format string, args ...any)

	mu      sync.Mutex
	running map[int64]bool
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Serve runs the work loops until the dispatcher signals shutdown or the
// context is canceled. It returns nil on a clean shutdown.
func (w *Worker) Serve(ctx context.Context) error {
	slots := w.Slots
	if slots <= 0 {
		slots = 1
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	beat := w.Heartbeat
	if beat <= 0 {
		beat = 5 * time.Second
	}
	run := w.Run
	if run == nil {
		run = sim.Run
	}
	w.mu.Lock()
	w.running = make(map[int64]bool)
	w.mu.Unlock()

	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(beat)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				w.heartbeat(hbCtx)
			}
		}
	}()
	defer func() { stopHB(); hbWG.Wait() }()

	errs := make(chan error, slots)
	for s := 0; s < slots; s++ {
		go func() { errs <- w.loop(ctx, poll, run) }()
	}
	var first error
	for s := 0; s < slots; s++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// loop is one slot's pull→run→submit cycle.
func (w *Worker) loop(ctx context.Context, poll time.Duration, run func(sim.Config) (*sim.Result, error)) error {
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var resp PullResponse
		if err := w.post(ctx, "/v1/pull", PullRequest{Worker: w.ID}, &resp); err != nil {
			// The dispatcher may simply not be up yet (corpfarm spawns
			// workers while binding its listener); poll through it.
			w.logf("pull: %v", err)
			if !sleepCtx(ctx, poll) {
				return ctx.Err()
			}
			continue
		}
		if resp.Shutdown {
			return nil
		}
		if resp.Job == nil {
			if !sleepCtx(ctx, poll) {
				return ctx.Err()
			}
			continue
		}
		job := *resp.Job
		w.setRunning(job.ID, true)
		start := time.Now()
		res, runErr := runContained(run, job.Spec.DecodeConfig())
		millis := float64(time.Since(start)) / float64(time.Millisecond)
		w.setRunning(job.ID, false)
		req := SubmitRequest{Worker: w.ID, ID: job.ID, Key: job.Key, Millis: millis}
		if runErr != nil {
			req.Error = runErr.Error()
		} else {
			req.Result = res
		}
		var sub okResponse
		if err := w.post(ctx, "/v1/submit", req, &sub); err != nil {
			// Submission lost (dispatcher restart, network): drop the
			// result; the lease will expire and the job will be retried.
			w.logf("submit job %d: %v", job.ID, err)
		} else if sub.Error != "" {
			w.logf("submit job %d rejected: %s", job.ID, sub.Error)
		}
	}
}

// runContained mirrors RunMany's panic containment: a panicking run
// becomes a submitted failure instead of a dead worker.
func runContained(run func(sim.Config) (*sim.Result, error), cfg sim.Config) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("run panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return run(cfg)
}

func (w *Worker) setRunning(id int64, on bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if on {
		w.running[id] = true
	} else {
		delete(w.running, id)
	}
}

// heartbeat extends leases for the jobs currently running and streams the
// worker's workload-cache counters (for the dispatcher's dedup
// accounting) and workpool occupancy (budget saturation).
func (w *Worker) heartbeat(ctx context.Context) {
	w.mu.Lock()
	ids := make([]int64, 0, len(w.running))
	for id := range w.running {
		ids = append(ids, id)
	}
	w.mu.Unlock()
	var resp okResponse
	if err := w.post(ctx, "/v1/heartbeat", HeartbeatRequest{
		Worker: w.ID, IDs: ids, Cache: workload.Default.Stats(),
		BudgetInUse: workpool.InUse(), BudgetLimit: workpool.Limit(),
	}, &resp); err != nil {
		w.logf("heartbeat: %v", err)
	}
}

// defaultClient bounds every request of a Worker without its own Client: a
// dispatcher that accepts the connection and never answers costs a minute,
// not the worker.
var defaultClient = &http.Client{Timeout: time.Minute}

// post sends one JSON request under ctx, so cancelling Serve abandons a
// request in flight instead of waiting for the dispatcher to answer it.
func (w *Worker) post(ctx context.Context, path string, req, resp any) error {
	client := w.Client
	if client == nil {
		client = defaultClient
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, w.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	r, err := client.Do(hr)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, r.StatusCode)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// sleepCtx sleeps or returns false when the context is done.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
