package main

import (
	"sort"
)

// metricDef names one metric the benchmark reports. Kind says which of the
// two sorts of number it is: "host" is what the simulator costs to run
// (noisy), "simulated" is what the modelled cluster did (repeats exactly
// for a fixed seed and is checked, not gated by tolerance).
type metricDef struct {
	Name   string
	Unit   string
	Kind   string
	Better string
	// Bound is the relative worsening of the median that counts as a
	// regression (end-to-end metrics only).
	Bound float64
	// On lists the workloads the metric applies to; nil means all four.
	On []string
	// Merged marks metrics the all-workloads parent computes from a
	// workload's untraced and traced runs together; a single run never
	// emits them, so BENCHMARK.json does not list them.
	Merged bool
}

func (d metricDef) appliesTo(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	simWorkloads = []string{wlCorp, wlScale, wlChurn}
	kernelOnly   = []string{wlCorp}
	farmOnly     = []string{wlFarm}
)

// endToEnd is what a user of the system sees, per workload. The first seven
// are the gated metrics of BENCHMARK.json, in its order. fail_ratio and
// sim_digest_ok are always 0 and 1 on a healthy tree, so the driver's
// result line carries them as failed/attempted and correct instead of as
// bounded metrics; the all-workloads report prints them by name.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Kind: "host", Better: "lower", Bound: 0.25},
	{Name: "run_wall_s", Unit: "s", Kind: "host", Better: "lower", Bound: 0.25},
	{Name: "run_cpu_s", Unit: "s", Kind: "host", Better: "lower", Bound: 0.25},
	{Name: "vm_slots_per_s", Unit: "1/s", Kind: "host", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_run", Unit: "MB", Kind: "host", Better: "lower", Bound: 0.02},
	{Name: "allocs_per_run", Unit: "count", Kind: "host", Better: "lower", Bound: 0.01},
	{Name: "peak_rss_mb", Unit: "MB", Kind: "host", Better: "lower", Bound: 0.15},
	{Name: "fail_ratio", Unit: "ratio", Kind: "both", Better: "lower"},
	{Name: "sim_digest_ok", Unit: "0/1", Kind: "simulated", Better: "higher"},
}

// gatedEndToEnd is the prefix of endToEnd that BENCHMARK.json bounds.
const gatedEndToEnd = 7

// perLayer is the traced layer drive's output. Layers are this repo's
// packages; bench/README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "trace.residents_ms", Unit: "ms", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "trace.shortjobs_ms", Unit: "ms", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "trace.jobs_generated", Unit: "count", Kind: "simulated", Better: "higher", On: simWorkloads},

	{Name: "workload.build_ms", Unit: "ms", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "workload.build_self_ms", Unit: "ms", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "workload.tables_ms", Unit: "ms", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "workload.history_ms", Unit: "ms", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "workload.snapshot_mb", Unit: "MB", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "workload.cache_hits", Unit: "count", Kind: "simulated", Better: "higher"},
	{Name: "workload.cache_misses", Unit: "count", Kind: "simulated", Better: "lower"},

	{Name: "cluster.new_ms", Unit: "ms", Kind: "host", Better: "lower", On: simWorkloads},

	{Name: "predict.pretrain_s", Unit: "s", Kind: "host", Better: "lower", On: kernelOnly},
	{Name: "predict.observe_us", Unit: "us", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "predict.predict_us", Unit: "us", Kind: "host", Better: "lower", On: simWorkloads},

	{Name: "dnn.forward_us", Unit: "us", Kind: "host", Better: "lower", On: kernelOnly},
	{Name: "dnn.forward_batch_us_per_row", Unit: "us", Kind: "host", Better: "lower", On: kernelOnly},
	{Name: "dnn.train_sample_us", Unit: "us", Kind: "host", Better: "lower", On: kernelOnly},
	{Name: "dnn.train_batch_us", Unit: "us", Kind: "host", Better: "lower", On: kernelOnly},

	{Name: "hmm.viterbi_us", Unit: "us", Kind: "host", Better: "lower", On: kernelOnly},
	{Name: "hmm.baumwelch_us", Unit: "us", Kind: "host", Better: "lower", On: kernelOnly},
	{Name: "hmm.predict_next_us", Unit: "us", Kind: "host", Better: "lower", On: kernelOnly},

	{Name: "stats.holt_observe_ns", Unit: "ns", Kind: "host", Better: "lower", On: kernelOnly},
	{Name: "stats.period_us", Unit: "us", Kind: "host", Better: "lower", On: kernelOnly},

	{Name: "packing.pack_us", Unit: "us", Kind: "host", Better: "lower", On: kernelOnly},
	{Name: "packing.place_us", Unit: "us", Kind: "host", Better: "lower", On: kernelOnly},

	{Name: "scheduler.new_ms", Unit: "ms", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "scheduler.observe_s", Unit: "s", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "scheduler.observe_us_per_vm_slot", Unit: "us", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "scheduler.refresh_s", Unit: "s", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "scheduler.refresh_ms_per_call", Unit: "ms", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "scheduler.place_s", Unit: "s", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "scheduler.place_us_per_job", Unit: "us", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "scheduler.placed_ratio", Unit: "ratio", Kind: "simulated", Better: "higher", On: simWorkloads},
	{Name: "scheduler.observe_share", Unit: "ratio", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "scheduler.refresh_share", Unit: "ratio", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "scheduler.place_share", Unit: "ratio", Kind: "host", Better: "lower", On: simWorkloads},

	{Name: "sim.run_s", Unit: "s", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "sim.cold_run_s", Unit: "s", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "sim.core_s", Unit: "s", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "sim.core_share", Unit: "ratio", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "sim.core_us_per_vm_slot", Unit: "us", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "sim.observe_tables_ns", Unit: "ns", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "sim.observe_recompute_us", Unit: "us", Kind: "host", Better: "lower", On: simWorkloads},
	{Name: "sim.wmax_speedup", Unit: "ratio", Kind: "host", Better: "higher", On: simWorkloads},

	{Name: "sim.overall_utilization", Unit: "ratio", Kind: "simulated", Better: "higher", On: simWorkloads},
	{Name: "sim.slo_violation_rate", Unit: "ratio", Kind: "simulated", Better: "lower", On: simWorkloads},
	{Name: "sim.prediction_error_rate", Unit: "ratio", Kind: "simulated", Better: "lower", On: simWorkloads},
	{Name: "sim.placed_opportunistic", Unit: "count", Kind: "simulated", Better: "higher", On: simWorkloads},
	{Name: "sim.never_placed", Unit: "count", Kind: "simulated", Better: "lower", On: simWorkloads},
	{Name: "sim.evictions", Unit: "count", Kind: "simulated", Better: "lower", On: simWorkloads},
	{Name: "sim.retries", Unit: "count", Kind: "simulated", Better: "lower", On: simWorkloads},
	{Name: "sim.dnn_train_errors", Unit: "count", Kind: "simulated", Better: "lower", On: simWorkloads},

	{Name: "experiments.configs", Unit: "count", Kind: "simulated", Better: "lower", On: farmOnly},
	{Name: "experiments.figures", Unit: "count", Kind: "simulated", Better: "higher", On: farmOnly},

	{Name: "farm.jobs", Unit: "count", Kind: "simulated", Better: "lower", On: farmOnly},
	{Name: "farm.dedup_ratio", Unit: "ratio", Kind: "simulated", Better: "higher", On: farmOnly},
	{Name: "farm.retries", Unit: "count", Kind: "host", Better: "lower", On: farmOnly},
	{Name: "farm.failed", Unit: "count", Kind: "both", Better: "lower", On: farmOnly},
	{Name: "farm.mean_run_ms", Unit: "ms", Kind: "host", Better: "lower", On: farmOnly},
	{Name: "farm.job_turnaround_p50_ms", Unit: "ms", Kind: "host", Better: "lower", On: farmOnly},
	{Name: "farm.job_turnaround_p95_ms", Unit: "ms", Kind: "host", Better: "lower", On: farmOnly},
	{Name: "farm.worker_busy_ratio", Unit: "ratio", Kind: "host", Better: "higher", On: farmOnly},
	{Name: "farm.wmax_speedup", Unit: "ratio", Kind: "host", Better: "higher", On: farmOnly},
	{Name: "farm.spec_encode_us", Unit: "us", Kind: "host", Better: "lower", On: kernelOnly},
	{Name: "farm.overhead_ms_per_job", Unit: "ms", Kind: "host", Better: "lower", On: kernelOnly},

	{Name: "bench.nproc", Unit: "count", Kind: "host", Better: "higher"},
	{Name: "bench.gomaxprocs", Unit: "count", Kind: "host", Better: "higher"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Kind: "host", Better: "lower", Merged: true},
	{Name: "bench.warm_units", Unit: "count", Kind: "host", Better: "higher", Merged: true},
}

// exactPerLayer are the per-layer values that must repeat bit for bit for a
// fixed seed; golden.json pins them for the default seed.
var exactPerLayer = []string{
	"trace.jobs_generated", "scheduler.placed_ratio",
	"sim.overall_utilization", "sim.slo_violation_rate", "sim.prediction_error_rate",
	"sim.placed_opportunistic", "sim.never_placed", "sim.evictions", "sim.retries",
	"sim.dnn_train_errors",
	"experiments.configs", "experiments.figures", "farm.jobs", "farm.dedup_ratio",
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// reading is one reported metric value. Repeated measures report their
// median as Value with the spread beside it.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Kind  string  `json:"kind,omitempty"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	// Note qualifies the number (e.g. "approximate: contains fault
	// handling") or says why it is absent.
	Note string `json:"note,omitempty"`
}

// quartiles returns Q1, median, Q3 as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), which
// is what the acceptance check uses. One value is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}
