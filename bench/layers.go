package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/dnn"
	"repro/internal/job"
	"repro/internal/predict"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// driveLayers is the traced run: the benchmark calls each layer's public
// functions with the workload's real inputs and records a span around every
// call. Nothing inside the program is instrumented; where a layer's calls
// can not be intercepted inside sim.Run they are replayed (see replay).
func driveLayers(w *workloadSpec, opts runOpts) (*report, error) {
	began := time.Now()
	rep := &report{
		Workload: w.name, Shape: opts.shape, Seed: opts.seed, Trace: 1,
		Correct: true, Metrics: map[string]reading{},
	}
	tr := newTracer()
	var err error
	if w.isFarm() {
		err = driveFarmLayers(rep, tr, w, opts)
	} else {
		err = driveSimLayers(rep, tr, w, opts)
	}
	if err != nil {
		return nil, err
	}
	rep.put("bench.nproc", float64(runtime.NumCPU()))
	rep.put("bench.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	if err := checkSpans(tr.spans); err != nil {
		rep.fail("trace: %v", err)
	}
	checkExact(rep, opts)
	rep.spans = tr.spans
	if opts.outDir != "" {
		if err := writeTrace(filepath.Join(opts.outDir, "trace-"+w.name+".json"), w.name, opts.seed, tr.spans); err != nil {
			return nil, err
		}
	}
	rep.WallS = time.Since(began).Seconds()
	return rep, nil
}

// checkExact compares the exact per-layer values with golden.json for the
// default seed.
func checkExact(rep *report, opts runOpts) {
	if opts.skipGolden || opts.seed != goldenSeed {
		return
	}
	want, ok := goldenFor(opts.shape, rep.Workload)
	if !ok {
		return // the digest check has already reported the missing entry
	}
	for _, name := range exactPerLayer {
		got, have := rep.Metrics[name]
		if !have {
			continue
		}
		if pinned, ok := want.Exact[name]; !ok || pinned != got.Value {
			rep.fail("%s = %v differs from golden %v", name, got.Value, pinned)
		}
	}
}

// tracedUnit runs one unit under its own root span and checks it like an
// untraced one.
func tracedUnit(rep *report, tr *tracer, w *workloadSpec, opts runOpts, id, spanName, coldDigest string, run func() unitOutcome) (unitOutcome, time.Duration) {
	runtime.GC()
	tr.beginUnit(id)
	var out unitOutcome
	d := tr.time(spanName, func() { out = run() })
	tr.endUnit()
	if coldDigest == "" {
		coldDigest = out.digest
	}
	rep.Attempted++
	checkUnit(rep, w, opts, id, out, coldDigest)
	return out, d
}

// driveSetup times set-up call by call. sim.PrepareWorkload is
// workload.Build behind the (reset) process-wide cache; the trace generators
// it calls are timed on their own with the snapshot's resolved params, so
// build_self is what the workload layer adds on top of them. Every timed
// call starts, like a setup_s rep, on an empty heap handed back to the OS —
// with a 450 MB snapshot still live, the collector's marking would be
// charged to whichever call came second.
func driveSetup(rep *report, tr *tracer, cfg sim.Config) (*cluster.Cluster, *workload.Snapshot, error) {
	tr.beginUnit("setup")
	defer tr.endUnit()
	cold := func() {
		workload.Default.Reset()
		debug.FreeOSMemory()
	}
	var cl *cluster.Cluster
	var err error
	rep.put("cluster.new_ms", millis(tr.time("cluster.New", func() {
		cl, err = cluster.New(cluster.Config{
			Profile: cfg.Profile, NumPMs: cfg.NumPMs, NumVMs: cfg.NumVMs, Heterogeneous: cfg.Heterogeneous,
		})
	})))
	if err != nil {
		return nil, nil, err
	}
	// An untimed build first: the generators need its resolved params.
	cold()
	snap, err := sim.PrepareWorkload(cfg)
	if err != nil {
		return nil, nil, err
	}
	params := snap.Params()
	snap = nil

	cold()
	residentsD := tr.time("trace.GenerateResidents", func() {
		_, err = trace.GenerateResidents(params.Residents, params.VMCaps, workload.ResidentFirstID)
	})
	if err != nil {
		return nil, nil, err
	}
	cold()
	generated := 0
	shortD := tr.time("trace.GenerateShortJobs", func() {
		var jobs []*job.Job
		jobs, err = trace.GenerateShortJobs(params.Jobs)
		generated = len(jobs)
	})
	if err != nil {
		return nil, nil, err
	}
	var longD time.Duration
	if params.Long.NumJobs > 0 {
		cold()
		longD = tr.time("trace.GenerateLongJobs", func() { _, err = trace.GenerateLongJobs(params.Long, workload.LongFirstID) })
		if err != nil {
			return nil, nil, err
		}
	}
	rep.put("trace.residents_ms", millis(residentsD))
	rep.put("trace.shortjobs_ms", millis(shortD))
	rep.put("trace.jobs_generated", float64(generated))

	// The timed build stays in the cache for the units.
	cold()
	build := tr.time("sim.PrepareWorkload", func() { snap, err = sim.PrepareWorkload(cfg) })
	if err != nil {
		return nil, nil, err
	}
	rep.put("workload.build_ms", millis(build))
	self := build - residentsD - shortD - longD
	if self < 0 {
		self = 0
	}
	rep.put("workload.build_self_ms", millis(self))
	rep.put("workload.tables_ms", millis(tr.time("workload.Snapshot.Tables", func() { snap.Tables() })))
	rep.put("workload.history_ms", millis(tr.time("workload.Snapshot.History", func() { _, _, err = snap.History() })))
	if err != nil {
		return nil, nil, err
	}
	rep.put("workload.snapshot_mb", float64(snap.Bytes())/1e6)
	return cl, snap, nil
}

func driveSimLayers(rep *report, tr *tracer, w *workloadSpec, opts runOpts) error {
	cfg := w.simCfg(opts.seed, 1)

	cl, snap, err := driveSetup(rep, tr, cfg)
	if err != nil {
		return err
	}

	// The units: cold, traced (warm), and one at full width.
	vms := len(cl.VMs)
	unit := func(workers int) func() unitOutcome {
		return func() unitOutcome { return runSimUnit(w.simCfg(opts.seed, workers), vms) }
	}
	cold, coldD := tracedUnit(rep, tr, w, opts, "cold", "sim.Run", "", unit(1))
	rep.Digest = cold.digest
	traced, runD := tracedUnit(rep, tr, w, opts, "traced", "sim.Run", cold.digest, unit(1))
	if traced.err != nil {
		return fmt.Errorf("traced unit: %w", traced.err)
	}
	rep.put("sim.cold_run_s", coldD.Seconds())
	rep.put("sim.run_s", runD.Seconds())
	rep.TracedUnitS = runD.Seconds()
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		_, wideD := tracedUnit(rep, tr, w, opts, "wmax", "sim.Run", cold.digest, unit(procs))
		rep.put("sim.wmax_speedup", runD.Seconds()/wideD.Seconds())
	} else {
		rep.omit("sim.wmax_speedup", "GOMAXPROCS == 1, no second worker to measure")
	}
	st := workload.Default.Stats()
	rep.put("workload.cache_hits", float64(st.Hits))
	rep.put("workload.cache_misses", float64(st.Misses))

	res := traced.sim
	rep.put("sim.overall_utilization", res.Overall)
	rep.put("sim.slo_violation_rate", res.SLORate)
	rep.put("sim.prediction_error_rate", res.PredictionErrorRate)
	rep.put("sim.placed_opportunistic", float64(res.PlacedOpportunistic))
	rep.put("sim.never_placed", float64(res.NeverPlaced))
	rep.put("sim.evictions", float64(res.Recovery.Evictions))
	rep.put("sim.retries", float64(res.Recovery.Retries))
	rep.put("sim.dnn_train_errors", float64(res.DNNTrainErrors))

	// Scheduler replay, then sim's own share by subtraction.
	rp, err := replay(tr, cfg, cl, snap, res.Slots)
	if err != nil {
		return err
	}
	vmSlots := float64(vms) * float64(res.Slots)
	run := runD.Seconds()
	rep.put("scheduler.new_ms", millis(rp.newD))
	rep.put("scheduler.observe_s", rp.observe.Seconds())
	rep.put("scheduler.observe_us_per_vm_slot", micros(rp.observe)/vmSlots)
	rep.put("scheduler.refresh_s", rp.refresh.Seconds())
	rep.put("scheduler.refresh_ms_per_call", millis(rp.refresh)/float64(rp.refreshCalls))
	rep.put("scheduler.place_s", rp.place.Seconds())
	rep.put("scheduler.place_us_per_job", micros(rp.place)/float64(rp.offered))
	rep.put("scheduler.placed_ratio", float64(rp.placed)/float64(rp.offered))
	rep.put("scheduler.observe_share", rp.observe.Seconds()/run)
	rep.put("scheduler.refresh_share", rp.refresh.Seconds()/run)
	rep.put("scheduler.place_share", rp.place.Seconds()/run)
	core := run - rp.observe.Seconds() - rp.refresh.Seconds() - rp.place.Seconds() - rp.newD.Seconds()
	if core < 0 {
		core = 0
	}
	rep.put("sim.core_s", core)
	rep.put("sim.core_share", core/run)
	rep.put("sim.core_us_per_vm_slot", core*1e6/vmSlots)
	if cfg.Faults.Enabled() {
		for _, name := range []string{"sim.core_s", "sim.core_share", "sim.core_us_per_vm_slot"} {
			r := rep.Metrics[name]
			r.Note = "approximate: also contains fault handling, and the replay feeds calm telemetry"
			rep.Metrics[name] = r
		}
	}

	if err := driveObserve(rep, tr, snap); err != nil {
		return err
	}
	if err := drivePredictor(rep, tr, cfg, cl, snap, res.Slots, rp.window); err != nil {
		return err
	}
	if w.kernels {
		// 50 farm jobs and 150 ms per kernel in the full shape.
		budget, farmJobs := 150*time.Millisecond, 50
		if opts.shape == "smoke" {
			budget, farmJobs = 5*time.Millisecond, 4
		}
		if err := drivePretrain(rep, tr, cfg, snap); err != nil {
			return err
		}
		if err := driveKernels(rep, tr, cfg, cl, snap, budget, farmJobs); err != nil {
			return err
		}
	}
	return nil
}

// replayed is the scheduler's work in one run, call for call.
type replayed struct {
	newD, observe, refresh, place time.Duration
	refreshCalls                  int
	offered, placed               int
	window                        int // the scheme's refresh period in slots
}

// replay reproduces the predictor and placement work of one run on a fresh
// scheduler. sim.Run has no scheduler injection seam, but on a calm run the
// telemetry it feeds the predictors at slot t is exactly the resident
// tables' UnusedRow(t mod Period), so ObserveAll per slot and Refresh per
// Window() are the run's own calls. Place is offered each slot's real
// arrival batch against idle-fleet views: occupancy is not replayed, so
// place_* is the cost of placing into an empty fleet.
func replay(tr *tracer, cfg sim.Config, cl *cluster.Cluster, snap *workload.Snapshot, slots int) (*replayed, error) {
	runtime.GC() // the same heap footing as a unit
	tr.beginUnit("replay")
	defer tr.endUnit()
	rp := &replayed{}
	scfg := cfg.Scheduler
	scfg.Workers = 1
	var sched scheduler.Scheduler
	var err error
	rp.newD = tr.time("scheduler.New", func() { sched, err = scheduler.New(scfg, cl) })
	if err != nil {
		return nil, err
	}
	batcher, ok := sched.(scheduler.BatchObserver)
	if !ok {
		return nil, fmt.Errorf("scheduler %s has no ObserveAll", sched.Name())
	}
	residents := snap.Residents()
	if scfg.Scheme == scheduler.CORP {
		history, horizon, err := snap.History()
		if err != nil {
			return nil, err
		}
		rp.observe += tr.time("scheduler.Observe(history)", func() {
			for v, h := range history {
				for t := 0; t < horizon; t++ {
					sched.Observe(v, h.UnusedAt(t))
				}
			}
		})
	}
	tables := snap.Tables()
	if tables == nil {
		return nil, fmt.Errorf("replay needs resident tables, and this population has no uniform period")
	}
	skip := make([]bool, len(residents))
	views := idleViews(cl, residents)
	jobs := snap.ShortJobs()
	next := 0
	rp.window = sched.Window()
	for t := 0; t < slots; t++ {
		unused := tables.UnusedRow(t % tables.Period)
		rp.observe += tr.time("scheduler.ObserveAll", func() { batcher.ObserveAll(unused, skip) })
		if t%rp.window == 0 {
			rp.refresh += tr.time("scheduler.Refresh", func() { sched.Refresh() })
			rp.refreshCalls++
		}
		lo := next
		for next < len(jobs) && jobs[next].Arrival+cfg.Warmup <= t {
			next++
		}
		if batch := jobs[lo:next]; len(batch) > 0 {
			rp.offered += len(batch)
			rp.place += tr.time("scheduler.Place", func() {
				for _, p := range sched.Place(batch, views) {
					rp.placed += len(p.Jobs)
				}
			})
		}
		sched.DrainOutcomes()
	}
	if rp.offered == 0 || rp.refreshCalls == 0 {
		return nil, fmt.Errorf("replay offered %d jobs over %d refreshes", rp.offered, rp.refreshCalls)
	}
	return rp, nil
}

// driveObserve times sim's telemetry phase alone on the workload's
// snapshot: the resident-table fast path and the per-VM recompute the
// faulted workloads fall back to.
func driveObserve(rep *report, tr *tracer, snap *workload.Snapshot) error {
	tr.beginUnit("observe")
	defer tr.endUnit()
	const slots = 64
	for _, side := range []struct {
		metric  string
		disable bool
		scale   time.Duration
	}{
		{"sim.observe_tables_ns", false, time.Nanosecond},
		{"sim.observe_recompute_us", true, time.Microsecond},
	} {
		ob, err := sim.NewObserveBench(snap, side.disable)
		if err != nil {
			return err
		}
		ob.Run(slots) // first pass sizes the scratch
		d := tr.time("sim.ObserveBench.Run", func() { ob.Run(slots) })
		rep.put(side.metric, float64(d)/slots/float64(side.scale))
	}
	return nil
}

// drivePredictor drives one predictor of the workload's scheme on VM 0's
// unused series, the way the scheduler does for every VM: Observe each
// slot, Predict each window.
func drivePredictor(rep *report, tr *tracer, cfg sim.Config, cl *cluster.Cluster, snap *workload.Snapshot, slots, window int) error {
	tr.beginUnit("predictor")
	defer tr.endUnit()
	capacity := cl.VMs[0].Capacity
	var p predict.Predictor
	switch cfg.Scheduler.Scheme {
	case scheduler.CORP:
		ccfg := cfg.Scheduler.Corp
		ccfg.Seed = cfg.Scheduler.Seed
		brain, err := predict.NewCorpBrain(ccfg)
		if err != nil {
			return err
		}
		p = predict.NewCorpPredictor(brain, capacity, cfg.Scheduler.Seed)
	case scheduler.RCCR:
		p = predict.NewRCCRPredictor(cfg.Scheduler.RCCR, capacity)
	default:
		return fmt.Errorf("no predictor drive for scheme %v", cfg.Scheduler.Scheme)
	}
	resident := snap.Residents()[0]
	var observe, forecast time.Duration
	predictions := 0
	for t := 0; t < slots; t++ {
		u := resident.UnusedAt(t)
		observe += tr.time("predict.Observe", func() { p.Observe(u) })
		if t%window == 0 {
			forecast += tr.time("predict.Predict", func() { p.Predict() })
			predictions++
		}
		p.DrainOutcomes()
	}
	rep.put("predict.observe_us", micros(observe)/float64(slots))
	rep.put("predict.predict_us", micros(forecast)/float64(predictions))
	return nil
}

// pretrainEpochs bounds the offline pretraining drive; the default 200
// epochs would take longer than every other drive together.
const pretrainEpochs = 3

func drivePretrain(rep *report, tr *tracer, cfg sim.Config, snap *workload.Snapshot) error {
	tr.beginUnit("pretrain")
	defer tr.endUnit()
	history, horizon, err := snap.History()
	if err != nil {
		return err
	}
	series := make([][]resource.Vector, len(history))
	caps := make([]resource.Vector, len(history))
	for v, h := range history {
		series[v] = make([]resource.Vector, horizon)
		for t := range series[v] {
			series[v][t] = h.UnusedAt(t)
		}
		caps[v] = snap.Params().VMCaps[v]
	}
	ccfg := cfg.Scheduler.Corp
	ccfg.Seed = cfg.Scheduler.Seed
	brain, err := predict.NewCorpBrain(ccfg)
	if err != nil {
		return err
	}
	popts := dnn.ParallelOptions{Workers: 1}
	popts.MaxEpochs = pretrainEpochs
	popts.Seed = cfg.Seed
	d := tr.time("predict.PretrainBrain", func() { _, err = predict.PretrainBrain(brain, series, caps, popts) })
	if err != nil {
		return err
	}
	rep.put("predict.pretrain_s", d.Seconds())
	return nil
}

// driveFarmLayers runs the farm workload's set-up drill and its traced units
// (cold, warm, and one at full width); the farm's counters are read at the
// RunBatch seam and from the dispatcher.
func driveFarmLayers(rep *report, tr *tracer, w *workloadSpec, opts runOpts) error {
	tr.beginUnit("setup")
	var err error
	tr.time("farm.setup", func() { _, err = farmSetup(opts.seed) })
	tr.endUnit()
	if err != nil {
		return err
	}
	unit := func(workers int) func() unitOutcome {
		return func() unitOutcome { return runFarmUnitOutcome(w, opts.seed, workers, tr) }
	}
	cold, _ := tracedUnit(rep, tr, w, opts, "cold", "experiments.figures", "", unit(1))
	rep.Digest = cold.digest
	traced, tracedD := tracedUnit(rep, tr, w, opts, "traced", "experiments.figures", cold.digest, unit(1))
	rep.TracedUnitS = tracedD.Seconds()
	if cold.err != nil || traced.err != nil {
		return fmt.Errorf("farm units: cold %v, traced %v", cold.err, traced.err)
	}
	if wide := wideFarmWorkers(); wide > 1 {
		_, wideD := tracedUnit(rep, tr, w, opts, "wmax", "experiments.figures", cold.digest, unit(wide))
		rep.put("farm.wmax_speedup", tracedD.Seconds()/wideD.Seconds())
	} else {
		rep.omit("farm.wmax_speedup", "GOMAXPROCS == 1, no second worker to measure")
	}
	u := traced.farm
	rep.put("experiments.configs", float64(u.configs))
	rep.put("experiments.figures", float64(len(u.figures)))
	rep.put("workload.cache_hits", float64(u.cache.Hits))
	rep.put("workload.cache_misses", float64(u.cache.Misses))
	rep.put("farm.jobs", float64(u.counters.Jobs))
	rep.put("farm.dedup_ratio", float64(u.counters.DedupHits)/float64(u.counters.Submitted))
	rep.put("farm.retries", float64(u.counters.Retries))
	rep.put("farm.failed", float64(u.counters.Failed))
	rep.put("farm.mean_run_ms", u.meanRunMS)
	rep.put("farm.worker_busy_ratio", u.meanRunMS*float64(u.counters.Completed)/(float64(u.workers)*millis(u.wall)))
	// Turnaround is pooled over both units so the p95 has samples beyond it.
	pooled := append(append([]float64(nil), cold.farm.turnaroundMS...), u.turnaroundMS...)
	sort.Float64s(pooled)
	pct := func(p float64) float64 { return pooled[int(p*float64(len(pooled)-1))] }
	for name, p := range map[string]float64{"farm.job_turnaround_p50_ms": 0.50, "farm.job_turnaround_p95_ms": 0.95} {
		rep.put(name, pct(p))
		r := rep.Metrics[name]
		r.N = len(pooled)
		rep.Metrics[name] = r
	}
	return nil
}

// idleViews is the fleet as the scheduler sees it with no short job
// placed: fresh headroom is capacity minus the resident reservation.
func idleViews(cl *cluster.Cluster, residents []*job.Job) []scheduler.VMView {
	views := make([]scheduler.VMView, len(cl.VMs))
	for i, vm := range cl.VMs {
		views[i] = scheduler.VMView{
			FreshAvailable: vm.Capacity.Sub(residents[i].Request).ClampNonNegative(),
		}
	}
	return views
}
