// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section IV). Each runner executes the required
// parameter sweep through the simulator and returns labeled series shaped
// like the paper's plots; cmd/corpbench prints them and bench_test.go wraps
// them in testing.B benchmarks.
//
// Figure index (see DESIGN.md for the full mapping):
//
//	Fig. 6  — prediction error rate vs number of jobs (cluster)
//	Fig. 7  — per-resource utilization vs number of jobs (cluster)
//	Fig. 8  — overall utilization vs SLO violation rate (cluster)
//	Fig. 9  — SLO violation rate vs confidence level (cluster)
//	Fig. 10 — scheduling overhead for 300 jobs (cluster)
//	Fig. 11 — per-resource utilization vs number of jobs (EC2)
//	Fig. 12 — overall utilization vs SLO violation rate (EC2)
//	Fig. 13 — SLO violation rate vs confidence level (EC2)
//	Fig. 14 — scheduling overhead for 300 jobs (EC2)
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

// Options tunes a whole experiment run.
type Options struct {
	// Profile selects the testbed. Figures 6–10 use the cluster profile,
	// 11–14 use EC2.
	Profile cluster.Profile
	// Seed drives all workload generation.
	Seed int64
	// Quick shrinks the cluster and the sweep for fast test/bench runs;
	// full runs reproduce the paper's scale (Table II).
	Quick bool
	// Workers sets each run's intra-run prediction-engine worker count
	// (sim.Config.Workers): 0 claims from the shared budget, 1 is serial.
	// Figures are identical at any value; only wall time changes.
	Workers int
	// ForecastTier enables CORP's two-tier predictor ("auto"); "" or
	// "off" keeps the single-tier pipeline. Figures are pinned
	// bit-identical with the tier off.
	ForecastTier string
	// RunBatch, when non-nil, executes a batch of independent simulation
	// configs and returns results positionally (results[i] for cfgs[i],
	// nil on failure, errors joined) — the sim.RunMany contract. The farm
	// dispatcher injects its distributed executor here; nil runs batches
	// in-process via sim.RunManyProgress. Because every runner routes all
	// simulations through this one seam and per-config runs are
	// deterministic, any conforming executor yields bit-identical figures.
	RunBatch func(cfgs []sim.Config) ([]*sim.Result, error)
	// Progress, when non-nil (and RunBatch is nil), observes per-run
	// completion of each in-process batch — the sim.RunManyProgress hook.
	// Front-ends use it for sweep progress/ETA reporting.
	Progress sim.ProgressFunc
}

// runBatch executes one batch of simulation configs through the configured
// executor (RunBatch) or in-process.
func (o Options) runBatch(cfgs []sim.Config) ([]*sim.Result, error) {
	if o.RunBatch != nil {
		return o.RunBatch(cfgs)
	}
	return sim.RunManyProgress(cfgs, 0, o.Progress)
}

// jobCounts returns the Fig. 6/7/11 x-axis: 50–300 jobs step 50 (paper),
// or a 3-point subset in quick mode.
func (o Options) jobCounts() []int {
	if o.Quick {
		return []int{50, 150, 300}
	}
	return []int{50, 100, 150, 200, 250, 300}
}

// clusterSize returns the simulated testbed size.
func (o Options) clusterSize() (pms, vms int) {
	if o.Profile == cluster.ProfileEC2 {
		// 30 nodes, one VM each (Section IV).
		return 30, 30
	}
	if o.Quick {
		return 20, 60
	}
	// 50 servers, 200 VMs (Table II midpoint).
	return 50, 200
}

// seeds returns the replication seeds for averaged experiments (the SLO
// figures count rare events, so single runs are noisy). Seeds are derived
// with a splitmix64 finalizer per replication stream: the old additive
// scheme (Seed, Seed+101, Seed+202) silently reused workloads whenever a
// caller swept base seeds 101 apart.
func (o Options) seeds() []int64 {
	n := 3
	if o.Quick {
		n = 2
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = deriveSeed(o.Seed, i)
	}
	return out
}

// deriveSeed maps (base seed, replication stream) onto a well-mixed
// non-negative seed. splitmix64 is a bijection on uint64, so distinct
// (base, stream) pairs collide only if splitmix64(b1)+s1 == splitmix64(b2)+s2
// — vanishingly unlikely for the small stream indices used here, and
// impossible for equal bases.
func deriveSeed(base int64, stream int) int64 {
	v := splitmix64(splitmix64(uint64(base)) + uint64(stream))
	return int64(v &^ (1 << 63))
}

// splitmix64 is the finalizer of Steele et al.'s SplitMix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// hotConfig is the contended variant used by the SLO figures (8/9/12/13):
// a smaller cluster under sustained arrivals, busier residents, and a
// tighter SLO threshold, so opportunistic risk actually surfaces as
// violations.
func (o Options) hotConfig(sc scheduler.Scheme, jobs int) sim.Config {
	cfg := o.baseConfig(sc, jobs)
	if o.Profile != cluster.ProfileEC2 {
		if o.Quick {
			cfg.NumPMs, cfg.NumVMs = 10, 20
		} else {
			cfg.NumPMs, cfg.NumVMs = 25, 50
		}
	}
	cfg.Residents.MeanUseShare = 0.5
	cfg.Residents.Fluctuation = 0.7
	cfg.Residents.JumpProb = 0.75
	cfg.Jobs.MeanDuration = 10
	cfg.Jobs.SLOFactor = 1.25
	cfg.ArrivalSpan = 120
	cfg.Drain = 120
	return cfg
}

// baseConfig assembles the shared simulation config for a scheme.
func (o Options) baseConfig(sc scheduler.Scheme, jobs int) sim.Config {
	pms, vms := o.clusterSize()
	cfg := sim.Config{
		Profile: o.Profile,
		NumPMs:  pms,
		NumVMs:  vms,
		NumJobs: jobs,
		Seed:    o.Seed,
		Scheduler: scheduler.Config{
			Scheme: sc,
			Seed:   o.Seed,
		},
		Workers: o.Workers,
	}
	// Fleet runs feed the shared DNN from every VM each slot; a light
	// replay factor keeps accuracy without quadratic training cost.
	cfg.Scheduler.Corp.ReplaySteps = 2
	cfg.Scheduler.Corp.TierEnabled = o.ForecastTier == "auto"
	return cfg
}

// Figure is one reproduced table or figure: a set of labeled series plus
// free-form notes recorded during the run.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []*metrics.Series
	Notes  []string
}

// SeriesByLabel returns the series with the given label, or nil.
func (f *Figure) SeriesByLabel(label string) *metrics.Series {
	for _, s := range f.Series {
		if s.Label == label {
			return s
		}
	}
	return nil
}

// String renders the figure as aligned text rows, one series per line.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "  x = %s, y = %s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %-16s", s.Label)
		for i := range s.X {
			fmt.Fprintf(&b, " (%.3g, %.4g)", s.X[i], s.Y[i])
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CheckOrdering verifies that the series' mean Y values are ordered as the
// labels list (descending). It returns an error naming the first
// violation; the experiments' self-checks and EXPERIMENTS.md use it.
func (f *Figure) CheckOrdering(descending bool, labels ...string) error {
	var prev *metrics.Series
	for _, label := range labels {
		s := f.SeriesByLabel(label)
		if s == nil {
			return fmt.Errorf("%s: series %q missing", f.ID, label)
		}
		if prev != nil {
			if descending && s.MeanY() > prev.MeanY() {
				return fmt.Errorf("%s: %q (%.4f) should be below %q (%.4f)",
					f.ID, s.Label, s.MeanY(), prev.Label, prev.MeanY())
			}
			if !descending && s.MeanY() < prev.MeanY() {
				return fmt.Errorf("%s: %q (%.4f) should be above %q (%.4f)",
					f.ID, s.Label, s.MeanY(), prev.Label, prev.MeanY())
			}
		}
		prev = s
	}
	return nil
}

// schemeOrder is the paper's comparison order.
var schemeOrder = []scheduler.Scheme{
	scheduler.CORP, scheduler.RCCR, scheduler.CloudScale, scheduler.DRA,
}

// runAll executes one simulation per scheme (concurrently) with a
// per-scheme config hook.
func runAll(o Options, jobs int, mutate func(*sim.Config)) (map[scheduler.Scheme]*sim.Result, error) {
	cfgs := make([]sim.Config, len(schemeOrder))
	for i, sc := range schemeOrder {
		cfg := o.baseConfig(sc, jobs)
		if mutate != nil {
			mutate(&cfg)
		}
		cfgs[i] = cfg
	}
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, fmt.Errorf("experiments: %d jobs: %w", jobs, err)
	}
	out := make(map[scheduler.Scheme]*sim.Result, len(schemeOrder))
	for i, sc := range schemeOrder {
		out[sc] = results[i]
	}
	return out, nil
}

// FigureSet runs every figure for the options' profile plus the
// fault-tolerance extension, in a fixed order — the per-profile campaign
// unit shared by the figure goldens and the cache- and farm-equivalence
// suites.
func FigureSet(o Options) ([]*Figure, error) {
	figs, err := AllFigures(o)
	if err != nil {
		return nil, err
	}
	faulted, err := ExtensionFaultTolerance(o)
	if err != nil {
		return nil, err
	}
	return append(figs, faulted), nil
}

// Campaign runs the full two-profile figure campaign: the cluster-profile
// figure set followed by the EC2 one. This is the workload the corpfarm
// dispatcher distributes; with a conforming Options.RunBatch executor its
// output is bit-identical to the in-process run.
func Campaign(o Options) ([]*Figure, error) {
	var out []*Figure
	for _, p := range []cluster.Profile{cluster.ProfileCluster, cluster.ProfileEC2} {
		o.Profile = p
		figs, err := FigureSet(o)
		if err != nil {
			return nil, fmt.Errorf("experiments: campaign %s: %w", p, err)
		}
		out = append(out, figs...)
	}
	return out, nil
}

// sortSeriesByX sorts every series' points by X (sweeps may fill them out
// of order).
func sortSeriesByX(f *Figure) {
	for _, s := range f.Series {
		idx := make([]int, len(s.X))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return s.X[idx[a]] < s.X[idx[b]] })
		xs := make([]float64, len(idx))
		ys := make([]float64, len(idx))
		for i, j := range idx {
			xs[i] = s.X[j]
			ys[i] = s.Y[j]
		}
		s.X, s.Y = xs, ys
	}
}
