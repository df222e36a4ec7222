package sim

import (
	"repro/internal/cluster"
	"repro/internal/resource"
	"repro/internal/trace"
	"repro/internal/workload"
)

// workloadParams derives the content-address of the workload a run with
// this (already defaulted) config generates: the generator configs with the
// run seed folded in and every cluster-derived default resolved. Run and
// PrepareWorkload both go through here, so a prepared snapshot and in-run
// generation are keyed — and therefore generated — identically.
func workloadParams(cfg Config, vmCaps []resource.Vector) workload.Params {
	horizon := cfg.Warmup + cfg.ArrivalSpan + cfg.Drain

	resCfg := cfg.Residents
	resCfg.Seed ^= cfg.Seed
	if resCfg.Horizon < horizon {
		resCfg.Horizon = horizon
	}

	// Explicit specs bypass the short-job generator entirely; the
	// snapshot then carries only residents (and long jobs, if any).
	var jobCfg trace.Config
	if cfg.ExplicitJobs == nil {
		jobCfg = cfg.Jobs
		jobCfg.Seed ^= cfg.Seed
		jobCfg.NumJobs = cfg.NumJobs
		jobCfg.ArrivalSpan = cfg.ArrivalSpan
		if jobCfg.VMCapacity.IsZero() {
			jobCfg.VMCapacity = vmCaps[0]
		}
	}

	var longCfg trace.LongJobConfig
	if cfg.LongJobs > 0 {
		longCfg = cfg.Long
		longCfg.Seed ^= cfg.Seed
		longCfg.NumJobs = cfg.LongJobs
		if longCfg.VMCapacity.IsZero() {
			longCfg.VMCapacity = vmCaps[0]
		}
	}

	return workload.Params{
		VMCaps:    vmCaps,
		Residents: resCfg,
		Jobs:      jobCfg,
		Long:      longCfg,
	}
}

// clusterFor builds the (already defaulted) config's cluster and the
// workload params its Run generates from.
func clusterFor(cfg Config) (*cluster.Cluster, workload.Params, error) {
	cl, err := cluster.New(cluster.Config{
		Profile: cfg.Profile, NumPMs: cfg.NumPMs, NumVMs: cfg.NumVMs,
		Heterogeneous: cfg.Heterogeneous,
	})
	if err != nil {
		return nil, workload.Params{}, err
	}
	vmCaps := make([]resource.Vector, len(cl.VMs))
	for i, vm := range cl.VMs {
		vmCaps[i] = vm.Capacity
	}
	return cl, workloadParams(cfg, vmCaps), nil
}

// WorkloadKey returns the content address (workload.Params.Key) of the
// workload the given config's Run would generate, without generating it.
// Two configs with equal keys draw bit-identical traces, so the key is the
// dedup unit for distributed work: the farm dispatcher folds it into job
// identities and workers build each distinct snapshot once per process.
// It does not validate: a config Run rejects still has a key, so it fails
// on its own slot of a batch.
func WorkloadKey(cfg Config) (string, error) {
	_, params, err := clusterFor(cfg.withDefaults())
	if err != nil {
		return "", err
	}
	return params.Key(), nil
}

// PrepareWorkload builds (or fetches from the cache) the workload snapshot
// the given config's Run would generate, without running the simulation.
// A config Run would reject is rejected here too, before anything is
// built. The returned snapshot can be assigned to Config.Prepared and
// shared read-only across any number of concurrent runs whose
// workload-affecting fields match; RunMany uses this to generate each
// distinct workload in a sweep exactly once.
func PrepareWorkload(cfg Config) (*workload.Snapshot, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	_, params, err := clusterFor(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return workload.Default.Get(params)
}
