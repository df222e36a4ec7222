package sim

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/workpool"
)

// RunMany executes several independent simulations concurrently on a
// bounded worker pool and returns results positionally. Each simulation is
// self-contained (own cluster, own scheduler, own RNGs), so runs
// parallelize perfectly; the experiment sweeps use this to regenerate
// figures on all cores.
//
// Workers ≤ 0 defaults to GOMAXPROCS. The pool claims its worker count
// from the shared budget (internal/workpool) for the duration of the
// sweep, so auto-sized runs' per-kind training goroutines (Config.Workers
// == 0) see only the remaining slots and outer×inner parallelism never
// oversubscribes the machine. A run that fails — including one
// that panics; panics are recovered per run so a single bad configuration
// cannot take down a whole sweep — leaves results[i] nil, with the
// remaining runs still completing. The returned error joins every per-run
// failure (errors.Join), so callers see all of them, not just the first.
func RunMany(cfgs []Config, workers int) ([]*Result, error) {
	return runMany(cfgs, workers, nil, Run)
}

// ProgressFunc observes sweep progress: it is called once per completed
// run (successful or failed) with the number of runs finished so far and
// the sweep total. Calls are serialized and arrive in completion order,
// not config order; done is strictly increasing from 1 to total.
type ProgressFunc func(done, total int)

// RunManyProgress is RunMany with a per-run completion callback. Both the
// corpsim/corpbench sweep front-ends and the farm dispatcher report
// progress and ETA through this one hook. A nil progress is RunMany.
func RunManyProgress(cfgs []Config, workers int, progress ProgressFunc) ([]*Result, error) {
	return runMany(cfgs, workers, progress, Run)
}

// runMany is RunMany with the per-run function injected for testing.
func runMany(cfgs []Config, workers int, progress ProgressFunc, run func(Config) (*Result, error)) ([]*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	if len(cfgs) == 0 {
		return results, nil
	}
	// Account the outer pool against the shared worker budget so inner
	// training fan-outs auto-size from the remainder. The claim is advisory: even
	// when the budget is exhausted the sweep still runs at its requested
	// width (worker counts never change results, only wall time).
	if claimed := workpool.ClaimUpTo(workers); claimed > 0 {
		defer workpool.Release(claimed)
	}
	// Pre-build each distinct workload snapshot once, concurrently,
	// before fanning the runs out: within a sweep the schemes ×
	// replications share (seed, workload) keys, so the cache's
	// singleflight generates every distinct trace exactly once here and
	// each run receives its snapshot read-only via Config.Prepared.
	prepared := make([]Config, len(cfgs))
	copy(prepared, cfgs)
	cfgs = prepared
	var pwg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for i := range idx {
				prepareSafe(&cfgs[i])
			}
		}()
	}
	for i := range cfgs {
		if cfgs[i].Prepared == nil {
			idx <- i
		}
	}
	close(idx)
	pwg.Wait()
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	done := 0
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = runSafe(run, cfgs[i], i)
				if progress != nil {
					progressMu.Lock()
					done++
					progress(done, len(cfgs))
					progressMu.Unlock()
				}
			}
		}()
	}
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, errors.Join(errs...)
}

// prepareSafe attaches the config's workload snapshot, swallowing errors
// and panics: a config whose preparation fails keeps Prepared nil, and the
// run itself regenerates and surfaces the real error on its own slot.
func prepareSafe(cfg *Config) {
	defer func() { _ = recover() }()
	if snap, err := PrepareWorkload(*cfg); err == nil {
		cfg.Prepared = snap
	}
}

// runSafe converts a panicking run into an error on the run's own slot.
func runSafe(run func(Config) (*Result, error), cfg Config, i int) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("sim: run %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return run(cfg)
}
