package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// wideFarmWorkers is the worker (and loopback connection) count of the one
// wide farm unit behind farm.wmax_speedup: min(GOMAXPROCS, 2). Every measured
// unit runs one worker, like the sim workloads' Workers: 1 — two busy workers
// on this box's two shared hardware threads swing a unit's wall by ±20 % and
// tie its allocation count to how long the idle worker polled. Both counts
// are computed, never configured, so the farm can not be asked to run more
// workers than the box has processors.
func wideFarmWorkers() int {
	if runtime.GOMAXPROCS(0) < 2 {
		return 1
	}
	return 2
}

// loopbackFarm is a fresh dispatcher served over an httptest loopback
// listener to in-process workers — the corpfarm deployment in one process.
type loopbackFarm struct {
	d      *farm.Dispatcher
	srv    *httptest.Server
	cancel context.CancelFunc
	done   chan error
	n      int
}

func startFarm(workers int, progress sim.ProgressFunc) *loopbackFarm {
	f := &loopbackFarm{n: workers, done: make(chan error, workers)}
	f.d = farm.NewDispatcher(farm.Config{Progress: progress})
	f.srv = httptest.NewServer(f.d.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < workers; i++ {
		w := &farm.Worker{
			BaseURL: f.srv.URL, ID: fmt.Sprintf("bench-%d", i),
			Poll: 5 * time.Millisecond, Client: f.srv.Client(),
		}
		go func() { f.done <- w.Serve(ctx) }()
	}
	return f
}

// stop drains the farm and returns once every worker has exited and the
// listener is closed.
func (f *loopbackFarm) stop() error {
	f.d.Shutdown()
	var first error
	for i := 0; i < f.n; i++ {
		if err := <-f.done; err != nil && first == nil {
			first = err
		}
	}
	f.cancel()
	f.srv.Close()
	return first
}

// quickDRAConfig is the cheapest realistic farm job: a DRA run at the quick
// figures' cluster size. The set-up drill pushes one through the full pull →
// run → submit path to prove the farm is ready, and the overhead drive
// compares a batch of them with and without the farm.
func quickDRAConfig(seed int64) sim.Config {
	return sim.Config{
		Profile: cluster.ProfileCluster, NumPMs: 20, NumVMs: 60, NumJobs: 50,
		Seed:      seed,
		Scheduler: scheduler.Config{Scheme: scheduler.DRA, Seed: seed},
		Clock:     &sim.VirtualClock{StepMicros: clockStep},
		Workers:   1,
	}
}

// farmSetup is one cold bring-up of everything before the first unit:
// dispatcher, loopback server and worker up, checked by one probe job
// through the whole path, then torn down.
func farmSetup(seed int64) (time.Duration, error) {
	start := time.Now()
	f := startFarm(1, nil)
	_, err := f.d.RunBatch([]sim.Config{quickDRAConfig(seed)})
	elapsed := time.Since(start)
	if serr := f.stop(); err == nil {
		err = serr
	}
	return elapsed, err
}

// farmUnit is the outcome of one figure batch through a fresh farm.
type farmUnit struct {
	figures      []*experiments.Figure
	configs      int
	vmSlots      float64
	jobsBalanced bool
	counters     farm.Counters
	meanRunMS    float64
	turnaroundMS []float64
	cache        workload.Stats
	workers      int
	wall         time.Duration
}

func numVMs(cfg sim.Config) (int, error) {
	cl, err := cluster.New(cluster.Config{
		Profile: cfg.Profile, NumPMs: cfg.NumPMs, NumVMs: cfg.NumVMs,
		Heterogeneous: cfg.Heterogeneous,
	})
	if err != nil {
		return 0, err
	}
	return len(cl.VMs), nil
}

// runFarmUnit runs the workload's figure runners with RunBatch routed
// through a fresh loopback farm of the given width. The process-wide
// workload cache is reset first, so every unit pays the same snapshot
// builds. tr, when non-nil, records one span per figure and per batch.
func runFarmUnit(w *workloadSpec, seed int64, workers int, tr *tracer) (*farmUnit, error) {
	workload.Default.Reset()
	u := &farmUnit{jobsBalanced: true, workers: workers}
	start := time.Now()
	var batchStart time.Time
	// Progress fires once per config position as its job completes (at
	// once for a position deduplicated onto a finished job): submit-to-
	// callback is the turnaround a corpfarm user waits per result.
	f := startFarm(workers, func(done, total int) {
		u.turnaroundMS = append(u.turnaroundMS, float64(time.Since(batchStart))/float64(time.Millisecond))
	})
	runBatch := func(cfgs []sim.Config) ([]*sim.Result, error) {
		if w.shrink != nil {
			for i := range cfgs {
				w.shrink(&cfgs[i])
			}
		}
		u.configs += len(cfgs)
		if tr != nil {
			tr.begin("farm.RunBatch")
			defer tr.end()
		}
		batchStart = time.Now()
		results, err := f.d.RunBatch(cfgs)
		if err != nil {
			return results, err
		}
		for i, r := range results {
			n, err := numVMs(cfgs[i])
			if err != nil {
				return nil, err
			}
			u.vmSlots += float64(n) * float64(r.Slots)
			if r.SLO.Finished+r.SLO.Unfinished != r.NumJobs {
				u.jobsBalanced = false
			}
		}
		return results, nil
	}
	opts := experiments.Options{
		Profile: cluster.ProfileCluster, Seed: seed, Quick: true,
		Workers: 1, RunBatch: runBatch,
	}
	var runErr error
	for _, fig := range w.figures {
		if tr != nil {
			tr.begin("experiments.figure")
		}
		out, err := fig(opts)
		if tr != nil {
			tr.end()
		}
		if err != nil {
			runErr = err
			break
		}
		u.figures = append(u.figures, out)
	}
	st := f.d.Status()
	u.counters, u.meanRunMS = st.Counters, st.MeanRunMS
	u.cache = workload.Default.Stats()
	if err := f.stop(); err != nil {
		runErr = errors.Join(runErr, err)
	}
	u.wall = time.Since(start)
	return u, runErr
}

// figuresDigest hashes every simulated statistic of a figure batch. Fig. 10
// (14 on EC2) plots measured scheduler wall time, so its Y values and notes
// are left out; everything else in a figure is a pure function of the seed.
func figuresDigest(figs []*experiments.Figure) (string, error) {
	type series struct {
		Label string
		X, Y  []float64
	}
	type figure struct {
		ID     string
		Series []series
		Notes  []string
	}
	var canon []figure
	for _, f := range figs {
		measured := f.ID == "fig10" || f.ID == "fig14"
		cf := figure{ID: f.ID}
		for _, s := range f.Series {
			cs := series{Label: s.Label, X: s.X}
			if !measured {
				cs.Y = s.Y
			}
			cf.Series = append(cf.Series, cs)
		}
		if !measured {
			cf.Notes = f.Notes
		}
		canon = append(canon, cf)
	}
	data, err := json.Marshal(canon)
	if err != nil {
		return "", fmt.Errorf("encode figures: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
