// Package sim is the discrete-time cluster simulator that drives the
// paper's evaluation: resident (tenant) jobs hold reservations on VMs and
// use a fluctuating fraction of them; short-lived jobs arrive and are
// placed by one of the four provisioning schemes; opportunistic placements
// ride the residents' allocated-but-unused resources and starve when the
// prediction overestimated, turning prediction error into SLO violations.
//
// One Run produces every metric the paper reports: per-kind and overall
// utilization (Eqs. 1–2), the prediction error rate of Fig. 6, the SLO
// violation rate, and the scheduling overhead of Figs. 10/14.
package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/workpool"
)

// Config parameterizes one simulation run.
type Config struct {
	// Profile selects the testbed (cluster or ec2).
	Profile cluster.Profile
	// NumPMs / NumVMs override testbed defaults when > 0.
	NumPMs, NumVMs int
	// Heterogeneous carves unequal VM sizes (see cluster.Config).
	Heterogeneous bool

	// NumJobs is |J|, the number of short-lived jobs (Table II: 50–300).
	// Zero defaults to 300.
	NumJobs int

	// Scheduler selects and configures the provisioning scheme.
	Scheduler scheduler.Config

	// Seed drives workload generation.
	Seed int64

	// Warmup is how many slots run before the first arrival, giving
	// predictors history (zero defaults to 90 slots = 15 minutes).
	Warmup int
	// ArrivalSpan is the span of slots over which jobs arrive (zero
	// defaults to 60).
	ArrivalSpan int
	// Drain is how many slots run after the last possible arrival (zero
	// defaults to 150 — enough for a 5-minute job plus SLO slack).
	Drain int

	// Epsilon is the prediction-error tolerance ε of the Fig. 6 metric
	// (relative to VM capacity). Zero defaults to 0.10.
	Epsilon float64

	// Weights are the ω of Eq. 2; zero defaults to 0.4/0.4/0.2.
	Weights resource.Weights

	// Residents overrides the tenant-load generator; the zero value uses
	// its defaults with Horizon matched to the run length.
	Residents trace.ResidentConfig

	// Jobs overrides the short-job generator; the zero value derives
	// VM-capacity-scaled defaults.
	Jobs trace.Config

	// ExplicitJobs, when non-nil, bypasses the generator entirely: the
	// run is driven by these specs (e.g. loaded from a real Google
	// task_usage table via trace.ReadGoogleTaskUsage). Arrivals are
	// still offset past the warmup; NumJobs is ignored.
	ExplicitJobs []*job.Job

	// Prepared supplies a pre-built workload snapshot (see
	// PrepareWorkload) instead of generating traces inside the run. The
	// snapshot is shared read-only — all per-run state lives on
	// job.Runtime wrappers — so one snapshot can drive any number of
	// concurrent runs. Its key must match what this config would
	// generate; Run fails fast on a mismatch rather than silently
	// simulating the wrong workload. Nil fetches the snapshot from the
	// process-wide cache, which builds it on a miss.
	Prepared *workload.Snapshot

	// RecordTimeline captures a per-slot snapshot into Result.Timeline.
	RecordTimeline bool

	// Faults configures the deterministic fault-injection layer: VM/PM
	// crash-and-recover events, resident demand surges, and transient
	// scheduler delays. The zero value injects nothing and leaves the
	// run bit-for-bit identical to a fault-free simulation.
	Faults faults.Config

	// Clock times scheduler decisions for the overhead metric. Nil uses
	// the real wall clock; inject a *VirtualClock for deterministic
	// overhead (regression tests, the ext-faults figure).
	Clock Clock

	// LongJobs adds long-lived service jobs to the run (the cooperative
	// mixed-workload extension): they arrive over time, receive
	// guaranteed reservations from a simple headroom-greedy method — the
	// "other method for long-lived jobs" CORP cooperates with — and
	// their allocated-but-unused resources join the opportunistic pool
	// the short-job schemes harvest. Zero disables them.
	LongJobs int
	// Long overrides the long-job generator.
	Long trace.LongJobConfig

	// Workers sizes CORP's per-kind training goroutines, the one
	// intra-run fan-out: above 1 the shared brain's three resource kinds
	// train concurrently, so the effective width is min(Workers, 3). 0
	// (the default) auto-sizes from the shared worker budget: a CORP run
	// claims up to 3 of the slots RunMany's outer pool has not already
	// taken, so sweeps and intra-run parallelism compose without
	// oversubscription. 1 forces a serial run. Results are bit-identical
	// at any worker count — Workers affects wall time only. Run overwrites
	// Scheduler.Workers with the resolved count.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.NumJobs <= 0 {
		c.NumJobs = 300
	}
	if c.Warmup <= 0 {
		c.Warmup = 90
	}
	if c.ArrivalSpan <= 0 {
		c.ArrivalSpan = 60
	}
	if c.Drain <= 0 {
		c.Drain = 150
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.10
	}
	if c.Weights == (resource.Weights{}) {
		c.Weights = resource.DefaultWeights()
	}
	if c.Residents.ReservedShare <= 0 {
		// 60% reserved leaves realistic fresh headroom for the
		// demand-based schemes while keeping a deep unused pool.
		c.Residents.ReservedShare = 0.6
	}
	if c.Scheduler.Scheme == scheduler.CORP && c.Scheduler.Corp.Pth <= 0 {
		// Table II's P_th = 0.95 is calibrated to the paper's trace; on
		// the synthetic trace the empirical in-band rate tops out lower,
		// so the experiment layer defaults the gate to 0.7 (Fig. 8
		// sweeps it). See EXPERIMENTS.md.
		c.Scheduler.Corp.Pth = 0.7
	}
	return c
}

// validate rejects settings no run can honour, before withDefaults turns
// zeros into defaults: a confidence level of 1 makes Eq. 19's z infinite
// (and σ̂·z NaN on a cold VM, which then scores as a perfect forecast); a
// probability outside [0, 1] or a negative count would run silently as
// something else. Zero always means "default". Every entry point passes
// through here: the CLIs, the façade, farm workers decoding a wire spec.
// The comparisons are written so that NaN fails them.
func (c Config) validate() error {
	type check struct {
		field string
		v     float64
		ok    bool
		want  string
	}
	level := func(field string, v float64) check {
		return check{field, v, v >= 0 && v < 1, "in (0, 1), or 0 for the default"}
	}
	prob := func(field string, v float64) check {
		return check{field, v, v >= 0 && v <= 1, "in [0, 1]"}
	}
	for _, f := range []check{
		level("Scheduler.Corp.Eta", c.Scheduler.Corp.Eta),
		level("Scheduler.RCCR.Eta", c.Scheduler.RCCR.Eta),
		{"Scheduler.Corp.Pth", c.Scheduler.Corp.Pth, c.Scheduler.Corp.Pth >= 0 && c.Scheduler.Corp.Pth <= 1, "in (0, 1], or 0 for the default"},
		{"Epsilon", c.Epsilon, c.Epsilon >= 0 && !math.IsInf(c.Epsilon, 1), "finite and >= 0 (0 for the default)"},
		prob("Faults.VMCrashProb", c.Faults.VMCrashProb),
		prob("Faults.PMCrashProb", c.Faults.PMCrashProb),
		prob("Faults.SurgeProb", c.Faults.SurgeProb),
		prob("Faults.DelayProb", c.Faults.DelayProb),
	} {
		if !f.ok {
			return fmt.Errorf("sim: config %s = %v, want %s", f.field, f.v, f.want)
		}
	}
	for _, f := range []struct {
		field string
		v     int
	}{
		{"NumPMs", c.NumPMs},
		{"NumVMs", c.NumVMs},
		{"NumJobs", c.NumJobs},
		{"Warmup", c.Warmup},
		{"ArrivalSpan", c.ArrivalSpan},
		{"Drain", c.Drain},
		{"LongJobs", c.LongJobs},
		{"Faults.MeanDowntime", c.Faults.MeanDowntime},
		{"Workers", c.Workers},
	} {
		if f.v < 0 {
			return fmt.Errorf("sim: config %s = %d, want >= 0 (0 for the default)", f.field, f.v)
		}
	}
	return nil
}

// Result aggregates one run's metrics.
type Result struct {
	Scheme  string
	Profile string
	NumJobs int
	Slots   int

	// Utilization per kind (Eq. 1 pooled over slots) and overall (Eq. 2),
	// computed over the submitted short-lived jobs — Eq. 1's n_t is "the
	// number of jobs submitted at time slot t". This is the headline
	// metric of Figs. 7/8/11/12: demand served over resources allocated.
	Utilization [resource.NumKinds]float64
	Overall     float64
	// Wastage is 1 − Overall (Eq. 4).
	Wastage float64

	// ClusterUtilization pools residents and short jobs together: the
	// whole-cluster view (demand over all reservations + allocations).
	ClusterUtilization [resource.NumKinds]float64
	ClusterOverall     float64

	// PredictionErrorRate is Fig. 6's metric: the fraction of matured
	// CPU-kind predictions with error outside [0, ε·cap).
	PredictionErrorRate float64
	PredictionSamples   int

	// SLO tallies.
	SLO     metrics.SLOStats
	SLORate float64

	// Overhead of allocating resources to all jobs: scheduler decision
	// wall time plus simulated communication, as in Figs. 10/14.
	Overhead metrics.LatencyTracker

	// Placement accounting.
	PlacedOpportunistic int
	PlacedFresh         int
	NeverPlaced         int
	MeanResponseSlots   float64

	// Response-time percentiles over finished short jobs (slots).
	ResponseP50 int
	ResponseP95 int
	// Fairness is Jain's index over the short jobs' mean service rates.
	Fairness float64

	// Long-lived job accounting (mixed-workload runs). LongFailed counts
	// long jobs killed by VM failures (they are not retried; their
	// reservations return to the pool).
	LongPlaced   int
	LongUnplaced int
	LongFinished int
	LongFailed   int

	// Recovery aggregates the fault-injection layer's accounting:
	// crashes, evictions, retries, time-to-replace, and the
	// starvation-versus-failure attribution of SLO violations. All zero
	// in fault-free runs.
	Recovery metrics.RecoveryStats

	// DNNTrainErrors counts online training samples the CORP brain
	// rejected during the run (always zero for healthy feeds; non-zero
	// means the predictor silently stopped learning part of its input).
	// Zero for schemes without an online DNN.
	DNNTrainErrors int

	// Never written, always zero: bench/golden.json digests
	// json.Marshal(Result), so the next benchmark PR drops them.
	TierHits        int
	TierEscalations int

	// Timeline holds per-slot snapshots when Config.RecordTimeline is
	// set (nil otherwise).
	Timeline []TimelinePoint
}

// vmState is the simulator's physical ledger for one VM.
type vmState struct {
	capacity        resource.Vector
	reserved        resource.Vector // resident reservation
	scheduler.Pools                 // short-job grants, fresh and opportunistic
	longReserved    resource.Vector // long-lived jobs' guaranteed reservations
	running         []*job.Runtime
	// hot mirrors running index-for-index with the per-slot execution state
	// (usage series, allocation, progress) packed into one dense array, so
	// executeVM streams a contiguous slice instead of chasing a *Runtime,
	// its *Job spec, and the usage backing array per job-slot. The Runtime
	// fields it shadows (Progress, Slots) are written back on finish,
	// eviction, and at finalize; Allocated is kept in both (adjustments
	// update the pair together). See hotShort in run.go.
	hot         []hotShort
	longRunning []*job.Runtime
}

// guaranteed is what the VM's capacity leaves short jobs: capacity minus
// the resident and the long-lived jobs' reservations.
func (st *vmState) guaranteed() resource.Vector {
	return st.capacity.Sub(st.reserved).Sub(st.longReserved)
}

// Run executes one simulation and returns its metrics.
func Run(cfg Config) (*Result, error) {
	rs, err := newRunState(cfg)
	if err != nil {
		return nil, err
	}
	defer rs.release()
	if err := rs.run(); err != nil {
		return nil, err
	}
	return rs.finalize(), nil
}

// release returns the run's claimed worker slots to the shared budget.
func (rs *runState) release() {
	if rs.claimed > 0 {
		workpool.Release(rs.claimed)
	}
}

// newRunState builds everything a run needs before its first slot: the
// cluster, the workload snapshot, the scheduler (pre-trained for CORP), the
// per-VM ledgers and the fault injector. Run drives the returned state
// through run and finalize, as do the law tests, with checkSlot set. The
// caller must release().
func newRunState(cfg Config) (rs *runState, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	// Size CORP's per-kind training fan-out from the shared worker budget.
	// It is the run's only concurrency, at most one goroutine per resource
	// kind, so only a CORP run claims, and never more than NumKinds slots.
	// Auto (0) claims from what remains — RunMany claims its outer slots
	// first, so nested parallelism never oversubscribes; an explicit count
	// > 1 runs at the requested width and the claim is advisory accounting
	// for any sibling auto-sized runs.
	workers := cfg.Workers
	claimed := 0
	if cfg.Scheduler.Scheme == scheduler.CORP {
		if workers == 0 {
			claimed = workpool.ClaimUpTo(resource.NumKinds)
		} else if workers > 1 {
			claimed = workpool.ClaimUpTo(min(workers, resource.NumKinds))
		}
	}
	if workers == 0 {
		workers = max(claimed, 1)
	}
	defer func() {
		if err != nil && claimed > 0 {
			workpool.Release(claimed)
		}
	}()
	cfg.Scheduler.Workers = workers

	cl, params, err := clusterFor(cfg)
	if err != nil {
		return nil, err
	}
	horizon := cfg.Warmup + cfg.ArrivalSpan + cfg.Drain

	// Workload snapshot: residents, short jobs, history, long jobs and the
	// resident tables for this config's (seed, workload) key — supplied
	// pre-built or fetched from the process-wide cache. The snapshot is
	// shared read-only; every run-local adjustment below (the warmup
	// arrival offsets) lands on per-run job.Runtime state, never on the
	// shared specs.
	snap := cfg.Prepared
	if snap == nil {
		if snap, err = workload.Default.Get(params); err != nil {
			return nil, err
		}
	} else if snap.Key() != params.Key() {
		return nil, fmt.Errorf("sim: prepared workload key %.12s does not match config key %.12s", snap.Key(), params.Key())
	}
	tables := snap.Tables()
	if tables.NumVMs != len(cl.VMs) {
		return nil, fmt.Errorf("sim: workload tables hold %d VMs for a %d-VM cluster", tables.NumVMs, len(cl.VMs))
	}
	residents := snap.Residents()

	// Short-lived jobs, arrivals offset past the warmup (on runtime
	// state, below). Explicit specs (e.g. a loaded real trace) take
	// precedence over the generator.
	var shortJobs []*job.Job
	if cfg.ExplicitJobs != nil {
		shortJobs = make([]*job.Job, len(cfg.ExplicitJobs))
		// A placement names its job by ID, so two specs sharing one would
		// make it ambiguous which runtime the scheduler placed.
		ids := make(map[job.ID]bool, len(cfg.ExplicitJobs))
		for i, j := range cfg.ExplicitJobs {
			if err := j.Validate(); err != nil {
				return nil, fmt.Errorf("sim: explicit job: %w", err)
			}
			if ids[j.ID] {
				return nil, fmt.Errorf("sim: explicit job: duplicate ID %d", j.ID)
			}
			ids[j.ID] = true
			shortJobs[i] = j
		}
		sort.SliceStable(shortJobs, func(a, b int) bool {
			return shortJobs[a].Arrival < shortJobs[b].Arrival
		})
		cfg.NumJobs = len(shortJobs)
		// Explicit arrivals may extend past the configured span; widen
		// the horizon so every job gets its drain period.
		if n := len(shortJobs); n > 0 {
			if last := shortJobs[n-1].Arrival + cfg.Warmup; last+cfg.Drain > horizon {
				horizon = last + cfg.Drain
			}
		}
	} else {
		shortJobs = snap.ShortJobs()
	}

	sched, err := scheduler.New(cfg.Scheduler, cl)
	if err != nil {
		return nil, err
	}

	// The oracle upper bound receives the true future unused series
	// (residents only; in mixed runs the long jobs' contribution stays
	// unknown even to the oracle).
	if cfg.Scheduler.Scheme == scheduler.Oracle {
		futures := make([][]resource.Vector, len(residents))
		for v, r := range residents {
			series := make([]resource.Vector, horizon)
			for t := 0; t < horizon; t++ {
				series[t] = r.UnusedAt(t)
			}
			futures[v] = series
		}
		scheduler.SetFutures(sched, futures)
	}

	// CORP trains its DNN on historical trace data before deployment
	// ("we first used the deep learning algorithm to predict ... based on
	// the historical resource usage data from the Google trace"): feed a
	// batch of sibling resident series through the scheduler's predictors
	// ahead of the run. Observations only — no predictions are recorded,
	// so the error statistics stay untouched.
	if cfg.Scheduler.Scheme == scheduler.CORP {
		history, histHorizon, err := snap.History()
		if err != nil {
			return nil, err
		}
		// History predates the run; the bounded per-VM windows flush it
		// naturally during the warmup as live samples displace it.
		for v, h := range history {
			for t := 0; t < histHorizon; t++ {
				sched.Observe(v, h.UnusedAt(t))
			}
		}
	}

	vms := make([]vmState, len(cl.VMs))
	for i, vm := range cl.VMs {
		vms[i] = vmState{
			capacity: vm.Capacity,
			reserved: residents[i].Request,
		}
	}

	// Every runtime of the run lives in one slab: the short jobs, then the
	// long-lived service jobs of the cooperative mixed workload, which
	// start arriving mid-warmup. runtimes and longRuntimes point into it.
	longJobs := snap.LongJobs()
	slab := make([]job.Runtime, len(shortJobs)+len(longJobs))
	runtimes := carveRuntimes(slab[:len(shortJobs)], shortJobs, cfg.Warmup)
	longRuntimes := carveRuntimes(slab[len(shortJobs):], longJobs, cfg.Warmup/2)

	clk := cfg.Clock
	if clk == nil {
		clk = NewWallClock()
	}

	// Fault injection: a zero-valued Faults config takes the fault-free
	// path untouched (no injector, no RNG draws, identical results).
	var inj *faults.Injector
	if cfg.Faults.Enabled() {
		fcfg := cfg.Faults
		fcfg.Seed ^= cfg.Seed
		vmToPM := make([]int, len(cl.VMs))
		for i, vm := range cl.VMs {
			vmToPM[i] = vm.PM
		}
		inj = faults.NewInjector(fcfg, vmToPM)
	}
	res := &Result{
		Scheme:  sched.Name(),
		Profile: cfg.Profile.String(),
		NumJobs: cfg.NumJobs,
		Slots:   horizon,
	}
	rs = &runState{
		cfg:          cfg,
		cl:           cl,
		sched:        sched,
		clk:          clk,
		inj:          inj,
		res:          res,
		horizon:      horizon,
		window:       sched.Window(),
		claimed:      claimed,
		vms:          vms,
		runtimes:     runtimes,
		longRuntimes: longRuntimes,
		// VM capacities never change mid-run; compute the
		// volume-normalising reference once instead of rescanning every
		// VM per candidate in the long-job placement phase.
		maxVMCap:  cl.MaxVMCapacity(),
		predTally: metrics.PredictionTally{Epsilon: cfg.Epsilon * cl.VMs[0].Capacity.At(resource.CPU)},
		tables:    tables,
	}
	rs.initScratch()
	return rs, nil
}

// carveRuntimes fills slab with one runtime per spec, each arriving offset
// slots after its spec's arrival, and returns pointers into it (nil for no
// specs).
func carveRuntimes(slab []job.Runtime, specs []*job.Job, offset int) []*job.Runtime {
	if len(specs) == 0 {
		return nil
	}
	out := make([]*job.Runtime, len(specs))
	for i, j := range specs {
		slab[i] = job.RuntimeAt(j, j.Arrival+offset)
		out[i] = &slab[i]
	}
	return out
}
