package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/dnn"
	"repro/internal/farm"
	"repro/internal/hmm"
	"repro/internal/job"
	"repro/internal/packing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Each kernel micro-drive runs kernelBatches timed batches that together
// take about its budget, and reports the median batch's time per call.
const kernelBatches = 5

// microDrive times fn in batches, one span per batch, and returns the
// median time of one call.
func microDrive(tr *tracer, name string, budget time.Duration, fn func()) time.Duration {
	fn() // first call sizes scratch buffers
	start := time.Now()
	fn()
	once := time.Since(start)
	if once <= 0 {
		once = time.Nanosecond
	}
	iters := int(budget / kernelBatches / once)
	if iters < 1 {
		iters = 1
	}
	perCall := make([]float64, kernelBatches)
	for b := range perCall {
		d := tr.time(name, func() {
			for i := 0; i < iters; i++ {
				fn()
			}
		})
		perCall[b] = float64(d) / float64(iters)
	}
	return time.Duration(median(perCall))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// driveKernels runs the micro-drives of the layers whose calls sit too deep
// inside a run to time from outside: the Table II DNN, the HMM correction,
// the baselines' forecasting kernels, CORP's packing and the farm's spec
// encoding and per-job overhead. snap and cl are the workload's own inputs.
func driveKernels(rep *report, tr *tracer, cfg sim.Config, cl *cluster.Cluster, snap *workload.Snapshot, budget time.Duration, farmJobs int) error {
	tr.beginUnit("kernels")
	defer tr.endUnit()
	var failed error
	must := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	// dnn: the paper's Table II predictor network {Δ=12, 50, 50, 1}.
	net, err := dnn.New(dnn.Config{LayerSizes: []int{12, 50, 50, 1}, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	in := make([]float64, 12)
	for i := range in {
		in[i] = float64(i) / 12
	}
	const rows = 256
	batchIn := make([]float64, rows*len(in))
	for r := 0; r < rows; r++ {
		copy(batchIn[r*len(in):], in)
	}
	scratch := net.NewBatchScratch(rows)
	// 6 rows = 1 new sample + the default 5 ReplaySteps: CORP's online shape.
	const trainRows = 6
	trainIn := batchIn[:trainRows*len(in)]
	trainTgt := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	rep.put("dnn.forward_us", micros(microDrive(tr, "dnn.Forward", budget, func() {
		_, err := net.Forward(in)
		must(err)
	})))
	rep.put("dnn.forward_batch_us_per_row", micros(microDrive(tr, "dnn.ForwardBatchInto", budget, func() {
		_, err := net.ForwardBatchInto(scratch, batchIn)
		must(err)
	}))/rows)
	rep.put("dnn.train_sample_us", micros(microDrive(tr, "dnn.TrainSample", budget, func() {
		_, err := net.TrainSample(in, trainTgt[:1])
		must(err)
	})))
	rep.put("dnn.train_batch_us", micros(microDrive(tr, "dnn.TrainBatch", budget, func() {
		_, err := net.TrainBatch(trainIn, trainTgt)
		must(err)
	})))

	// hmm: the correction step's shape — a 120-slot history symbolized in
	// windows of 6, so 20 observations.
	vals := make([]float64, 120)
	for i := range vals {
		vals[i] = 50 + 18*math.Sin(float64(i)/5) + float64(i%7)
	}
	sym, err := hmm.NewSymbolizer(hmm.WindowMeans(vals, 6))
	if err != nil {
		return err
	}
	obs := sym.ObserveLevels(vals, 6)
	model := hmm.NewPaperModel(cfg.Seed)
	hs := hmm.NewScratch()
	var last hmm.State
	rep.put("hmm.viterbi_us", micros(microDrive(tr, "hmm.ViterbiInto", budget, func() {
		path, _, err := model.ViterbiInto(hs, obs)
		must(err)
		if err == nil {
			last = path[len(path)-1]
		}
	})))
	rep.put("hmm.baumwelch_us", micros(microDrive(tr, "hmm.BaumWelchInto", budget, func() {
		_, _, err := model.BaumWelchInto(hs, obs, 5, 1e-5)
		must(err)
	})))
	rep.put("hmm.predict_next_us", micros(microDrive(tr, "hmm.PredictNextSymbolInto", budget, func() {
		_, _, err := model.PredictNextSymbolInto(hs, last)
		must(err)
	})))

	// stats: RCCR's kernel (Holt observe + forecast) and CloudScale's
	// (dominant period of a 256-sample window).
	holt := stats.NewHoltETS(0.5, 0.1)
	var sink float64
	tick := 0
	rep.put("stats.holt_observe_ns", float64(microDrive(tr, "stats.HoltETS", budget, func() {
		holt.Observe(vals[tick%len(vals)])
		sink += holt.Forecast(6)
		tick++
	})))
	series := make([]float64, 256)
	for i := range series {
		series[i] = 40 + 12*math.Sin(2*math.Pi*float64(i)/32) + float64(i%5)
	}
	var ps stats.PeriodScratch
	rep.put("stats.period_us", micros(microDrive(tr, "stats.PeriodScratch.DominantPeriod", budget, func() {
		p, _ := ps.DominantPeriod(series, 0.1)
		sink += float64(p)
	})))
	if math.IsNaN(sink) {
		must(fmt.Errorf("stats kernels produced NaN"))
	}

	// packing: Pack on the workload's largest arrival batch, Place over
	// the idle fleet's candidates.
	batch := largestArrivalBatch(snap.ShortJobs())
	maxCap := cl.MaxVMCapacity()
	rep.put("packing.pack_us", micros(microDrive(tr, "packing.Pack", budget, func() {
		if len(packing.Pack(batch, maxCap)) == 0 {
			must(fmt.Errorf("packing.Pack returned no entity for %d jobs", len(batch)))
		}
	})))
	residents := snap.Residents()
	candidates := make([]packing.Candidate, len(cl.VMs))
	for i, vm := range cl.VMs {
		candidates[i] = packing.Candidate{VM: i, Available: vm.Capacity.Sub(residents[i].Request)}
	}
	demand := batch[0].PeakDemand()
	rep.put("packing.place_us", micros(microDrive(tr, "packing.Place", budget, func() {
		packing.Place(demand, candidates, maxCap)
	})))

	// farm: what one config costs to put on the wire and to address.
	rep.put("farm.spec_encode_us", micros(microDrive(tr, "farm.EncodeSpec+Keys", budget, func() {
		spec, err := farm.EncodeSpec(cfg)
		must(err)
		_, _, err = spec.Keys()
		must(err)
	})))
	must(driveFarmOverhead(rep, tr, cfg.Seed, farmJobs))
	return failed
}

// largestArrivalBatch returns the jobs of the busiest arrival slot (specs
// are sorted by arrival).
func largestArrivalBatch(jobs []*job.Job) []*job.Job {
	var best []*job.Job
	for lo := 0; lo < len(jobs); {
		hi := lo
		for hi < len(jobs) && jobs[hi].Arrival == jobs[lo].Arrival {
			hi++
		}
		if hi-lo > len(best) {
			best = jobs[lo:hi]
		}
		lo = hi
	}
	return best
}

// driveFarmOverhead runs a batch of quick DRA configs (distinct seeds, so
// nothing dedups) through a loopback farm and through sim.RunMany at the
// same width; the difference per job is what the farm adds: spec encoding,
// keys, HTTP/JSON round-trips, lease bookkeeping and idle polls.
func driveFarmOverhead(rep *report, tr *tracer, seed int64, jobs int) error {
	cfgs := func() []sim.Config {
		out := make([]sim.Config, jobs)
		for i := range out {
			out[i] = quickDRAConfig(seed + int64(1000+i))
		}
		return out
	}
	// Three alternating rounds, each side's fastest kept: box noise only
	// ever adds time, and the difference of two noisy half-second walls is
	// otherwise mostly noise.
	const workers = 1
	var direct, farmed time.Duration
	for round := 0; round < 3; round++ {
		var err error
		workload.Default.Reset()
		d := tr.time("sim.RunMany", func() { _, err = sim.RunMany(cfgs(), workers) })
		if err != nil {
			return err
		}
		workload.Default.Reset()
		f := startFarm(workers, nil)
		fd := tr.time("farm.Dispatcher.RunBatch", func() { _, err = f.d.RunBatch(cfgs()) })
		if serr := f.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		if round == 0 || d < direct {
			direct = d
		}
		if round == 0 || fd < farmed {
			farmed = fd
		}
	}
	rep.put("farm.overhead_ms_per_job", millis(farmed-direct)/float64(jobs))
	return nil
}
