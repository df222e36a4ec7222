// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section IV). Each runner executes the required
// parameter sweep through the simulator and returns labeled series shaped
// like the paper's plots. Registry lists them all once; the façade's
// FigureIDs/ReproduceFigure, the campaign, cmd/corpbench, cmd/corpfarm,
// the root figure benchmarks and the figure goldens all read it.
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
	// Workers sets each run's per-kind training goroutines, at most 3
	// (sim.Config.Workers): 0 claims from the shared budget, 1 is serial.
	// Results are identical at any count; only wall time changes.
	Workers int
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
// figures count rare events, so single runs are noisy): three at full
// scale, two in quick mode, plus extra. Seeds are derived with a splitmix64
// finalizer per replication stream: the old additive scheme (Seed,
// Seed+101, Seed+202) silently reused workloads whenever a caller swept
// base seeds 101 apart.
func (o Options) seeds(extra int) []int64 {
	out := make([]int64, o.scale(3, 2)+extra)
	for i := range out {
		out[i] = deriveSeed(o.Seed, i)
	}
	return out
}

// scale picks a sweep parameter: the paper's value, or the quick one.
func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// replicate is the one sweep primitive: it runs every variant once per seed
// as a single batch and returns cells[variant][replication], replications
// in seed order. build returns variant v's config for one replication;
// replicate itself seeds the run and its scheduler.
func (o Options) replicate(seeds []int64, variants int, build func(v int, seed int64) sim.Config) ([][]*sim.Result, error) {
	cfgs := make([]sim.Config, 0, variants*len(seeds))
	for v := 0; v < variants; v++ {
		for _, seed := range seeds {
			cfg := build(v, seed)
			cfg.Seed, cfg.Scheduler.Seed = seed, seed
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, err
	}
	cells := make([][]*sim.Result, variants)
	for v := range cells {
		cells[v] = results[v*len(seeds) : (v+1)*len(seeds)]
	}
	return cells, nil
}

// mean averages one metric over a cell's replications: the sum in seed
// order, divided once (Σx / n). That is the order Figs. 8/9/12/13 have
// always used; the extension figures used to add x/n terms, which agrees
// bit for bit at n = 2 and to the last ulp at n = 3 (EXPERIMENTS.md,
// "One sweep primitive").
func mean(cell []*sim.Result, metric func(*sim.Result) float64) float64 {
	var sum float64
	for _, r := range cell {
		sum += metric(r)
	}
	return sum / float64(len(cell))
}

// The metrics the figures average.
func overall(r *sim.Result) float64       { return r.Overall }
func sloRate(r *sim.Result) float64       { return r.SLORate }
func predErrorRate(r *sim.Result) float64 { return r.PredictionErrorRate }
func opportunistic(r *sim.Result) float64 { return float64(r.PlacedOpportunistic) }

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

// runSchemes runs one simulation per scheme on one workload instance and
// returns the results in comparison order.
func (o Options) runSchemes(seed int64, jobs int) ([]*sim.Result, error) {
	cells, err := o.replicate([]int64{seed}, len(schemeOrder), func(v int, _ int64) sim.Config {
		return o.baseConfig(schemeOrder[v], jobs)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %d jobs: %w", jobs, err)
	}
	results := make([]*sim.Result, len(cells))
	for v, cell := range cells {
		results[v] = cell[0]
	}
	return results, nil
}

// AnyProfile in Spec.Profile marks a figure that runs on whichever testbed
// the caller's Options name.
const AnyProfile cluster.Profile = -1

// Spec is one row of the figure registry.
type Spec struct {
	ID string
	// Profile is the testbed the ID names — the paper numbers a cluster
	// figure and its EC2 rerun apart, so fig07 and fig11 are one runner —
	// or AnyProfile.
	Profile cluster.Profile
	// Campaign marks the figures FigureSet runs on Profile.
	Campaign bool
	// WallClock marks a figure whose Y is measured scheduler decision time
	// and so differs between any two runs of the same binary: goldens and
	// equivalence checks cover its labels, point counts and X only.
	WallClock bool
	run       func(Options) (*Figure, error)
}

// Reproduce runs the figure, on the testbed its ID names if it names one.
func (s Spec) Reproduce(o Options) (*Figure, error) {
	if s.Profile != AnyProfile {
		o.Profile = s.Profile
	}
	return s.run(o)
}

// Registry lists every reproducible table and figure once, in the order
// the paper (then DESIGN.md §4) presents them.
func Registry() []Spec {
	const cl, ec2 = cluster.ProfileCluster, cluster.ProfileEC2
	return []Spec{
		{ID: "tableII", Profile: AnyProfile, run: func(Options) (*Figure, error) { return TableII(), nil }},
		{ID: "fig06", Profile: cl, Campaign: true, run: Fig06PredictionError},
		{ID: "fig07", Profile: cl, Campaign: true, run: Fig07Utilization},
		{ID: "fig08", Profile: cl, Campaign: true, run: Fig08UtilVsSLO},
		{ID: "fig09", Profile: cl, Campaign: true, run: Fig09SLOVsConfidence},
		{ID: "fig10", Profile: cl, Campaign: true, WallClock: true, run: Fig10Overhead},
		// EC2 reruns Figs. 7–10 as Figs. 11–14 (no Fig. 6 twin in the paper).
		{ID: "fig11", Profile: ec2, Campaign: true, run: Fig07Utilization},
		{ID: "fig12", Profile: ec2, Campaign: true, run: Fig08UtilVsSLO},
		{ID: "fig13", Profile: ec2, Campaign: true, run: Fig09SLOVsConfidence},
		{ID: "fig14", Profile: ec2, Campaign: true, WallClock: true, run: Fig10Overhead},
		{ID: "ablations", Profile: AnyProfile, run: AblationStudy},
		{ID: "ext-strategies", Profile: AnyProfile, run: ExtensionPlacementStrategies},
		{ID: "ext-packk", Profile: AnyProfile, run: ExtensionPackK},
		{ID: "ext-mixed", Profile: AnyProfile, run: ExtensionMixedWorkload},
		{ID: "ext-oracle", Profile: AnyProfile, run: ExtensionOracleGap},
		{ID: "ext-faults", Profile: AnyProfile, Campaign: true, run: ExtensionFaultTolerance},
	}
}

// Lookup returns the registry row for an ID; the error of an unknown ID
// lists the valid ones.
func Lookup(id string) (Spec, error) {
	var ids []string
	for _, s := range Registry() {
		if s.ID == id {
			return s, nil
		}
		ids = append(ids, s.ID)
	}
	return Spec{}, fmt.Errorf("experiments: unknown figure %q (valid: %v)", id, ids)
}

// FigureSet runs the campaign figures of the options' profile — the
// paper's figures for that testbed plus the fault-tolerance extension — in
// registry order: the per-profile campaign unit shared by the figure
// goldens and the cache- and farm-equivalence suites.
func FigureSet(o Options) ([]*Figure, error) {
	var figs []*Figure
	for _, s := range Registry() {
		if !s.Campaign || (s.Profile != AnyProfile && s.Profile != o.Profile) {
			continue
		}
		f, err := s.run(o)
		if err != nil {
			return nil, err
		}
		figs = append(figs, f)
	}
	return figs, nil
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
