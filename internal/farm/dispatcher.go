package farm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// jobState is the lifecycle of a queued job.
type jobState int

const (
	statePending jobState = iota
	stateLeased
	stateDone
	stateFailed
)

// farmJob is the dispatcher's record of one distinct work unit. A job may
// back many config positions across many batches (dedup); it runs once.
type farmJob struct {
	id          int64
	key         string
	workloadKey string
	spec        RunSpec

	state    jobState
	attempts int       // leases handed out
	worker   string    // current lease holder
	deadline time.Time // current lease deadline

	result *sim.Result
	err    error
	done   chan struct{} // closed exactly once, on done/failed
}

// Counters is the dispatcher's cumulative accounting, exported through
// the status endpoint, corpfarm's summary, and the perf snapshot.
type Counters struct {
	// Submitted counts config positions submitted across all batches;
	// Jobs counts the distinct work units enqueued. Their difference is
	// DedupHits: positions served by an already-enqueued (or finished)
	// job instead of a new execution.
	Submitted int64 `json:"submitted"`
	Jobs      int64 `json:"jobs"`
	DedupHits int64 `json:"dedup_hits"`
	// DistinctWorkloads counts unique workload content addresses across
	// all jobs — the number of traces the campaign needs generated at
	// all; each worker process builds each at most once via its cache.
	DistinctWorkloads int64 `json:"distinct_workloads"`
	Completed         int64 `json:"completed"`
	Failed            int64 `json:"failed"`
	// Retries counts re-enqueues: expired leases (worker died or hung)
	// plus failed attempts that had attempts left.
	Retries int64 `json:"retries"`
	// DeterminismAlarms counts duplicate submissions for a finished job
	// that runs under the virtual clock — deterministic by contract —
	// whose result differed from the stored one. Anything but zero means
	// two workers disagree about the same content-addressed run.
	DeterminismAlarms int64 `json:"determinism_alarms"`
}

// WorkerStatus is the dispatcher's view of one worker, fed by heartbeats
// and submissions.
type WorkerStatus struct {
	ID        string         `json:"id"`
	LastSeen  time.Time      `json:"last_seen"`
	Running   int            `json:"running"`
	Completed int64          `json:"completed"`
	Cache     workload.Stats `json:"cache"`
	// BudgetInUse/BudgetLimit mirror the worker process's workpool
	// occupancy from its last heartbeat: how many slots its runs' training
	// fan-outs have claimed, independent of lease count.
	BudgetInUse int `json:"budget_in_use"`
	BudgetLimit int `json:"budget_limit"`
}

// Status is the progress/ETA report served by GET /v1/status.
type Status struct {
	Counters Counters       `json:"counters"`
	Pending  int            `json:"pending"`
	Leased   int            `json:"leased"`
	Workers  []WorkerStatus `json:"workers"`
	// FleetCache is the sum of every worker's snapshot-cache counters
	// from its last heartbeat: with W distinct workloads and N worker
	// processes, fleet-wide misses at most N×W proves each process built
	// each shared trace once.
	FleetCache workload.Stats `json:"fleet_cache"`
	Shutdown   bool           `json:"shutdown"`
	MeanRunMS  float64        `json:"mean_run_ms"`
	// ETASeconds estimates time to drain the queue from the mean run
	// duration and the number of live workers; -1 when unknown (nothing
	// completed yet or no workers).
	ETASeconds float64 `json:"eta_seconds"`
}

// Config tunes a Dispatcher.
type Config struct {
	// Lease is how long a worker holds a pulled job before the
	// dispatcher assumes it died and requeues. Zero defaults to 2m.
	Lease time.Duration
	// MaxAttempts caps leases per job before it fails permanently.
	// Zero defaults to 3.
	MaxAttempts int
	// Progress, when non-nil, observes per-run completion of every
	// batch executed through RunBatch (the sim.RunManyProgress hook).
	Progress sim.ProgressFunc
	// Logf, when non-nil, receives dispatcher event logs.
	Logf func(format string, args ...any)
}

// Dispatcher owns the job queue: it dedups submitted configs into
// content-addressed jobs, leases them to pulling workers, requeues
// abandoned leases, and reassembles batch results positionally.
type Dispatcher struct {
	cfg Config
	now func() time.Time // injectable for lease tests

	mu        sync.Mutex
	nextID    int64
	byKey     map[string]*farmJob
	pending   []*farmJob // FIFO
	workloads map[string]struct{}
	workers   map[string]*WorkerStatus
	counters  Counters
	shutdown  bool

	runs      int64   // completed runs with duration reports
	runMillis float64 // total reported run duration
}

// NewDispatcher builds a dispatcher with the given tuning.
func NewDispatcher(cfg Config) *Dispatcher {
	if cfg.Lease <= 0 {
		cfg.Lease = 2 * time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	return &Dispatcher{
		cfg:       cfg,
		now:       time.Now,
		byKey:     make(map[string]*farmJob),
		workloads: make(map[string]struct{}),
		workers:   make(map[string]*WorkerStatus),
	}
}

func (d *Dispatcher) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// Batch is one submitted slice of configs awaiting distributed execution.
// jobs[i] backs cfgs[i]; duplicates point at the same job.
type Batch struct {
	d    *Dispatcher
	jobs []*farmJob
}

// Submit dedups the configs into the queue and returns a Batch whose Wait
// reassembles results positionally. Configs that cannot be serialized
// (explicit jobs, foreign clocks) fail the whole batch up front — that is
// a caller bug, not a run failure.
func (d *Dispatcher) Submit(cfgs []sim.Config) (*Batch, error) {
	jobs := make([]*farmJob, len(cfgs))
	specs := make([]RunSpec, len(cfgs))
	keys := make([]string, len(cfgs))
	wkeys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		spec, err := EncodeSpec(cfg)
		if err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		jobKey, workloadKey, err := spec.Keys()
		if err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		specs[i], keys[i], wkeys[i] = spec, jobKey, workloadKey
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.shutdown {
		return nil, errors.New("farm: dispatcher is shut down")
	}
	for i := range cfgs {
		d.counters.Submitted++
		if j, ok := d.byKey[keys[i]]; ok {
			d.counters.DedupHits++
			jobs[i] = j
			continue
		}
		d.nextID++
		j := &farmJob{
			id:          d.nextID,
			key:         keys[i],
			workloadKey: wkeys[i],
			spec:        specs[i],
			done:        make(chan struct{}),
		}
		d.byKey[keys[i]] = j
		d.pending = append(d.pending, j)
		d.counters.Jobs++
		if _, ok := d.workloads[wkeys[i]]; !ok {
			d.workloads[wkeys[i]] = struct{}{}
			d.counters.DistinctWorkloads++
		}
		jobs[i] = j
	}
	return &Batch{d: d, jobs: jobs}, nil
}

// Wait blocks until every job backing the batch is done or permanently
// failed and returns results positionally — results[i] for cfgs[i], nil
// on failure, failures joined — exactly the sim.RunMany contract. The
// progress callback (may be nil) fires serialized, in completion order.
func (b *Batch) Wait(progress sim.ProgressFunc) ([]*sim.Result, error) {
	results := make([]*sim.Result, len(b.jobs))
	errs := make([]error, len(b.jobs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	done := 0
	for i, j := range b.jobs {
		wg.Add(1)
		go func(i int, j *farmJob) {
			defer wg.Done()
			<-j.done
			mu.Lock()
			defer mu.Unlock()
			results[i], errs[i] = j.result, j.err
			done++
			if progress != nil {
				progress(done, len(b.jobs))
			}
		}(i, j)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// RunBatch is Submit + Wait: a drop-in experiments.Options.RunBatch
// executor routing every sweep batch through the farm.
func (d *Dispatcher) RunBatch(cfgs []sim.Config) ([]*sim.Result, error) {
	b, err := d.Submit(cfgs)
	if err != nil {
		return nil, err
	}
	return b.Wait(d.cfg.Progress)
}

// Pull leases the oldest pending job to the worker. ok is false when the
// queue is drained (idle poll) — distinct from shutdown, which tells the
// worker to exit.
func (d *Dispatcher) Pull(workerID string) (job Job, ok, shutdown bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.touchWorker(workerID)
	if d.shutdown {
		return Job{}, false, true
	}
	d.reapExpiredLocked()
	// Skip queue entries that are no longer pending: a job can finish via
	// a stale submission (an expired-lease attempt raced its own retry)
	// while still sitting in the FIFO.
	var j *farmJob
	for j == nil {
		if len(d.pending) == 0 {
			return Job{}, false, false
		}
		j = d.pending[0]
		d.pending = d.pending[1:]
		if j.state != statePending {
			j = nil
		}
	}
	j.state = stateLeased
	j.attempts++
	j.worker = workerID
	j.deadline = d.now().Add(d.cfg.Lease)
	d.logf("lease job %d attempt %d -> %s", j.id, j.attempts, workerID)
	return Job{ID: j.id, Key: j.key, Spec: j.spec}, true, false
}

// Heartbeat extends the worker's leases and records its liveness,
// workload-cache counters, and workpool occupancy for the status report.
func (d *Dispatcher) Heartbeat(req HeartbeatRequest) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.touchWorker(req.Worker)
	w.Running = len(req.IDs)
	w.Cache = req.Cache
	w.BudgetInUse = req.BudgetInUse
	w.BudgetLimit = req.BudgetLimit
	held := make(map[int64]bool, len(req.IDs))
	for _, id := range req.IDs {
		held[id] = true
	}
	deadline := d.now().Add(d.cfg.Lease)
	for _, j := range d.byKey {
		if j.state == stateLeased && j.worker == req.Worker && held[j.id] {
			j.deadline = deadline
		}
	}
}

// SubmitResult records one run's outcome. First completion wins; a stale
// submission for an already-finished job (its lease expired and a retry
// beat it) is dropped — either copy is correct, results are deterministic.
// Under the virtual clock that is checkable, so a stale copy that differs
// from the stored result raises a determinism alarm instead of vanishing.
// A failed attempt requeues until MaxAttempts, then fails the job for all
// batches waiting on it, mirroring RunMany's per-slot error containment.
func (d *Dispatcher) SubmitResult(workerID string, jobID int64, key string, result *sim.Result, runErr string, millis float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.touchWorker(workerID)
	j := d.byKey[key]
	if j == nil || j.id != jobID {
		return fmt.Errorf("farm: unknown job %d (%.16s…)", jobID, key)
	}
	if j.state == stateDone || j.state == stateFailed {
		// Stale duplicate; first submission won.
		if j.state == stateDone && result != nil && j.spec.VirtualClockStep != 0 && !sameResult(j.result, result) {
			d.counters.DeterminismAlarms++
			d.logf("DETERMINISM ALARM: job %d (%.16s…) resubmitted by %s with a different result", j.id, j.key, workerID)
		}
		return nil
	}
	if runErr != "" {
		if j.state != stateLeased || j.worker != workerID {
			// A failure from an expired lease; the job has already been
			// requeued (or re-leased elsewhere). Nothing to do.
			return nil
		}
		if j.attempts >= d.cfg.MaxAttempts {
			j.state = stateFailed
			j.err = fmt.Errorf("farm: job %d failed after %d attempts: %s", j.id, j.attempts, runErr)
			d.counters.Failed++
			d.logf("job %d failed permanently: %s", j.id, runErr)
			close(j.done)
			return nil
		}
		d.counters.Retries++
		j.state = statePending
		j.worker = ""
		d.pending = append(d.pending, j)
		d.logf("job %d attempt %d failed (%s); requeued", j.id, j.attempts, runErr)
		return nil
	}
	if result == nil {
		return fmt.Errorf("farm: job %d submitted with neither result nor error", jobID)
	}
	j.state = stateDone
	j.result = result
	w.Completed++
	d.counters.Completed++
	d.runs++
	d.runMillis += millis
	close(j.done)
	return nil
}

// sameResult reports whether two results encode to the same JSON — the
// wire form, which round-trips every float64 exactly, so a copy that came
// over HTTP compares equal to one submitted in-process.
func sameResult(a, b *sim.Result) bool {
	ea, errA := json.Marshal(a)
	eb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ea, eb)
}

// reapExpiredLocked requeues leased jobs whose deadline passed (the
// holding worker died or hung). Jobs out of attempts fail permanently.
// Called with the lock held, on every pull — workers poll continuously,
// so expiry is detected within one poll interval without a background
// timer.
func (d *Dispatcher) reapExpiredLocked() {
	now := d.now()
	for _, j := range d.byKey {
		if j.state != stateLeased || now.Before(j.deadline) {
			continue
		}
		if j.attempts >= d.cfg.MaxAttempts {
			j.state = stateFailed
			j.err = fmt.Errorf("farm: job %d abandoned after %d attempts (lease expired on %q)", j.id, j.attempts, j.worker)
			d.counters.Failed++
			d.logf("job %d abandoned by %s; out of attempts", j.id, j.worker)
			close(j.done)
			continue
		}
		d.counters.Retries++
		d.logf("job %d lease expired on %s; requeued", j.id, j.worker)
		j.state = statePending
		j.worker = ""
		d.pending = append(d.pending, j)
	}
}

// touchWorker records worker liveness; called with the lock held.
func (d *Dispatcher) touchWorker(id string) *WorkerStatus {
	w := d.workers[id]
	if w == nil {
		w = &WorkerStatus{ID: id}
		d.workers[id] = w
	}
	w.LastSeen = d.now()
	return w
}

// Counters returns a snapshot of the cumulative accounting.
func (d *Dispatcher) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counters
}

// Status reports queue depth, per-worker state, and an ETA estimate.
func (d *Dispatcher) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reapExpiredLocked()
	st := Status{Counters: d.counters, Shutdown: d.shutdown, ETASeconds: -1}
	for _, j := range d.byKey {
		switch j.state {
		case statePending:
			st.Pending++
		case stateLeased:
			st.Leased++
		}
	}
	for _, w := range d.workers {
		st.Workers = append(st.Workers, *w)
		st.FleetCache = st.FleetCache.Add(w.Cache)
	}
	sort.Slice(st.Workers, func(a, b int) bool { return st.Workers[a].ID < st.Workers[b].ID })
	if d.runs > 0 {
		st.MeanRunMS = d.runMillis / float64(d.runs)
		if n := len(st.Workers); n > 0 {
			st.ETASeconds = st.MeanRunMS / 1000 * float64(st.Pending+st.Leased) / float64(n)
		}
	}
	return st
}

// Shutdown drains the farm: subsequent pulls tell workers to exit and
// subsequent submits are refused. In-flight results are still accepted.
func (d *Dispatcher) Shutdown() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.shutdown = true
}
