// Package corp is a from-scratch Go reproduction of "CORP: Cooperative
// Opportunistic Resource Provisioning for Short-Lived Jobs in Cloud
// Systems" (Liu, Shen, Chen — IEEE CLUSTER 2016).
//
// The package re-exports the library's main entry points; the full
// machinery lives in the internal packages:
//
//   - internal/core — the CORP controller (prediction + packing +
//     placement) for live use;
//   - internal/sim — the discrete-time cluster simulator driving the
//     paper's evaluation;
//   - internal/experiments — one runner per table/figure of Section IV;
//   - internal/predict, internal/dnn, internal/hmm, internal/packing,
//     internal/stats, internal/trace, internal/cluster — the substrates.
//
// Quick start:
//
//	res, err := corp.RunSimulation(corp.DefaultSimConfig())
//	fig, err := corp.ReproduceFigure("fig06", corp.QuickOptions(1))
//
// See README.md for the architecture overview and EXPERIMENTS.md for the
// paper-versus-measured record.
package corp

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported types: the stable public API surface.
type (
	// SimConfig parameterizes one simulation run.
	SimConfig = sim.Config
	// SimResult aggregates one run's metrics.
	SimResult = sim.Result
	// SchedulerConfig selects and tunes a provisioning scheme.
	SchedulerConfig = scheduler.Config
	// Scheme identifies one of the four evaluated schemes.
	Scheme = scheduler.Scheme
	// Figure is one reproduced table or figure.
	Figure = experiments.Figure
	// Options tunes an experiment run.
	Options = experiments.Options
	// Controller is the live CORP control loop.
	Controller = core.Controller
	// ControllerConfig parameterizes a Controller.
	ControllerConfig = core.Config
	// Grant is one allocation decision.
	Grant = core.Grant
	// Cluster is the simulated physical substrate.
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes cluster construction.
	ClusterConfig = cluster.Config
	// Job is an immutable job specification.
	Job = job.Job
	// Vector is a multi-resource amount.
	Vector = resource.Vector
	// WorkloadConfig parameterizes synthetic short-job generation.
	WorkloadConfig = trace.Config
	// FaultConfig parameterizes the simulator's deterministic
	// fault-injection layer (SimConfig.Faults).
	FaultConfig = faults.Config
	// Clock abstracts the overhead timer; SimConfig.Clock accepts a
	// VirtualClock for deterministic overhead measurements.
	Clock = sim.Clock
	// VirtualClock is the deterministic Clock implementation.
	VirtualClock = sim.VirtualClock
	// WorkloadSnapshot is an immutable pre-built workload (residents,
	// short jobs, history, long jobs) shareable read-only across
	// concurrent runs via SimConfig.Prepared.
	WorkloadSnapshot = workload.Snapshot
	// WorkloadCacheStats reports the process-wide snapshot cache's
	// hit/miss/bytes counters.
	WorkloadCacheStats = workload.Stats
)

// The four evaluated schemes, in the paper's comparison order.
const (
	SchemeCORP       = scheduler.CORP
	SchemeRCCR       = scheduler.RCCR
	SchemeCloudScale = scheduler.CloudScale
	SchemeDRA        = scheduler.DRA
)

// Testbed profiles from Section IV of the paper.
const (
	ProfileCluster = cluster.ProfileCluster
	ProfileEC2     = cluster.ProfileEC2
)

// DefaultSimConfig returns a Table II-shaped configuration: the 50-server
// cluster testbed, 300 short-lived jobs, CORP as the scheme.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Profile:   ProfileCluster,
		NumJobs:   300,
		Scheduler: SchedulerConfig{Scheme: SchemeCORP},
	}
}

// RunSimulation executes one simulation run.
func RunSimulation(cfg SimConfig) (*SimResult, error) {
	return sim.Run(cfg)
}

// NewCluster builds a testbed.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(cfg)
}

// NewController builds a live CORP controller over a cluster.
func NewController(cl *Cluster, cfg ControllerConfig) (*Controller, error) {
	return core.NewController(cl, cfg)
}

// GenerateWorkload produces synthetic Google-trace-like short-lived jobs.
func GenerateWorkload(cfg WorkloadConfig) ([]*Job, error) {
	return trace.GenerateShortJobs(cfg)
}

// PrepareWorkload pre-builds (or fetches from the cache) the workload
// snapshot the given config's run would generate. Assign it to
// SimConfig.Prepared to drive any number of concurrent runs off one
// generation; results are identical either way.
func PrepareWorkload(cfg SimConfig) (*WorkloadSnapshot, error) {
	return sim.PrepareWorkload(cfg)
}

// WorkloadCacheCounters returns the process-wide snapshot cache's current
// counters.
func WorkloadCacheCounters() WorkloadCacheStats {
	return workload.Default.Stats()
}

// QuickOptions returns experiment options for fast runs (small cluster,
// fewer sweep points) with the given seed.
func QuickOptions(seed int64) Options {
	return Options{Seed: seed, Quick: true}
}

// FullOptions returns experiment options at the paper's scale.
func FullOptions(seed int64) Options {
	return Options{Seed: seed}
}

// FigureIDs lists the reproducible figure identifiers in paper order: the
// IDs of experiments.Registry.
func FigureIDs() []string {
	var ids []string
	for _, s := range experiments.Registry() {
		ids = append(ids, s.ID)
	}
	return ids
}

// ReproduceFigure runs the harness for one of the paper's tables/figures.
// Valid IDs are those returned by FigureIDs; fig06–fig14 run on the testbed
// the paper's figure of that number used, whatever o.Profile says.
func ReproduceFigure(id string, o Options) (*Figure, error) {
	s, err := experiments.Lookup(id)
	if err != nil {
		return nil, err
	}
	return s.Reproduce(o)
}
