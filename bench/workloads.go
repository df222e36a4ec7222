package main

import (
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

// clockStep is the virtual overhead clock every unit runs under, so
// Result.Overhead — and with it the result digest — is deterministic.
const clockStep = 50

// workloadSpec is one set of inputs the benchmark runs. Exactly one of simCfg
// and figures is set: a sim workload's unit is one sim.Run, the farm
// workload's unit is one figure batch through a loopback farm.
type workloadSpec struct {
	name string
	why  string
	// simCfg builds the unit's config from the benchmark seed. workers is
	// sim.Config.Workers (1 for every measured unit).
	simCfg func(seed int64, workers int) sim.Config
	// figures are the runners of one farm unit, in order; shrink, when
	// non-nil, rewrites every config at the RunBatch seam (smoke shape).
	figures []func(experiments.Options) (*experiments.Figure, error)
	shrink  func(*sim.Config)
	// kernels marks the workload whose traced drive also runs the kernel
	// micro-drives (dnn, hmm, stats, packing, farm spec/overhead).
	kernels bool
}

func (w *workloadSpec) isFarm() bool { return w.figures != nil }

// The four workload names, in run order.
const (
	wlCorp  = "corp-cluster"
	wlScale = "rccr-scale5k"
	wlChurn = "rccr-scale5k-churn"
	wlFarm  = "figures-farm"
)

// workloads returns the benchmark's workloads in the given shape: "full" is
// what BENCHMARK.json measures, "smoke" is the seconds-scale shape of the
// same four that rides `go test`.
func workloads(shape string) []*workloadSpec {
	smoke := shape == "smoke"
	corp := func(seed int64, workers int) sim.Config {
		cfg := sim.Config{
			Profile: cluster.ProfileCluster, NumPMs: 50, NumVMs: 200, NumJobs: 300,
			Seed:      seed,
			Scheduler: scheduler.Config{Scheme: scheduler.CORP, Seed: seed},
			Clock:     &sim.VirtualClock{StepMicros: clockStep},
			Workers:   workers,
		}
		if smoke {
			cfg.NumPMs, cfg.NumVMs, cfg.NumJobs = 5, 10, 30
			cfg.Warmup, cfg.ArrivalSpan, cfg.Drain = 24, 12, 24
		}
		return cfg
	}
	// scale is internal/perf's scaleProfileConfig with the seed threaded
	// through, so rccr-scale5k continues the scale/sim-scale5k-rccr-w1
	// history of the BENCH_*.json snapshots.
	scale := func(seed int64, workers int) sim.Config {
		cfg := sim.Config{
			Profile: cluster.ProfileScale,
			NumJobs: 350_000, Seed: seed,
			Warmup: 30, ArrivalSpan: 60, Drain: 90,
			Scheduler: scheduler.Config{Scheme: scheduler.RCCR, Seed: seed},
			Clock:     &sim.VirtualClock{StepMicros: clockStep},
			Workers:   workers,
		}
		cfg.Jobs.MeanDuration = 30
		cfg.Jobs.VMCapacity = resource.Vector{0.5, 2, 8}
		if smoke {
			cfg.NumPMs, cfg.NumVMs, cfg.NumJobs = 500, 2000, 12_000
			cfg.Warmup, cfg.ArrivalSpan, cfg.Drain = 12, 12, 24
		}
		return cfg
	}
	churn := func(seed int64, workers int) sim.Config {
		cfg := scale(seed, workers)
		cfg.Faults = faults.Config{Seed: seed, VMCrashProb: 5e-4, SurgeProb: 2e-3}
		cfg.LongJobs = 2000
		// Same fleet, arrival rate and fault rates as the calm workload over
		// two thirds of its horizon: three warm units of the full 180-slot
		// faulted run do not fit the driver's time cap.
		cfg.NumJobs, cfg.ArrivalSpan, cfg.Drain = 175_000, 30, 60
		if smoke {
			cfg.NumJobs, cfg.ArrivalSpan, cfg.Drain = 12_000, 12, 24
			cfg.LongJobs = 200
		}
		return cfg
	}
	farm := &workloadSpec{
		name: wlFarm,
		why:  "what corpfarm users run: quick figures 6, 7 and 10, all four schemes, through a loopback dispatcher and worker; only here do experiments, farm, the workload cache and the CloudScale/DRA baselines work",
		figures: []func(experiments.Options) (*experiments.Figure, error){
			experiments.Fig06PredictionError,
			experiments.Fig07Utilization,
			experiments.Fig10Overhead,
		},
	}
	if smoke {
		farm.figures = farm.figures[:1]
		farm.shrink = func(cfg *sim.Config) {
			cfg.NumPMs, cfg.NumVMs, cfg.NumJobs = 3, 6, cfg.NumJobs/5
			cfg.Warmup, cfg.ArrivalSpan, cfg.Drain = 24, 12, 24
		}
	}
	return []*workloadSpec{
		{
			name:    wlCorp,
			why:     "the paper's own scheme at Table II size: predict/dnn/hmm do ~97% of the work, sim/trace/workload almost none",
			simCfg:  corp,
			kernels: true,
		},
		{
			name:   wlScale,
			why:    "calm 5000-PM fleet under RCCR: the sim core (event queue, resident tables, span fast-forward, fit-scan placement) and trace/workload set-up do the work; predictors are cheap",
			simCfg: scale,
		},
		{
			name:   wlChurn,
			why:    "same fleet plus crashes, surges and long jobs: every conditional fast path of the sim core stands down, so a fast-path gain that taxes the slow path shows here and not in rccr-scale5k",
			simCfg: churn,
		},
		farm,
	}
}

func findWorkload(shape, name string) *workloadSpec {
	for _, w := range workloads(shape) {
		if w.name == name {
			return w
		}
	}
	return nil
}
