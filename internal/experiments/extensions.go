package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

// Extension experiments beyond the paper's figures: the design-space
// studies DESIGN.md lists under ablations/extensions.

// metricRow is one series of a metric-index figure: point i is the cell's
// mean of metrics[i].
func metricRow(label string, cell []*sim.Result, metric ...func(*sim.Result) float64) *metrics.Series {
	s := &metrics.Series{Label: label}
	for i, m := range metric {
		s.Append(float64(i), mean(cell, m))
	}
	return s
}

// ExtensionPlacementStrategies compares CORP's Eq. 22 most-matched
// placement against first-fit, worst-fit and random selection on a
// heterogeneous, contended cluster — the regime where the "most matched
// VM" choice pays off by keeping large slack blocks intact.
func ExtensionPlacementStrategies(o Options) (*Figure, error) {
	f := &Figure{
		ID:     "ext-strategies",
		Title:  "Extension: CORP placement strategies (heterogeneous, " + o.Profile.String() + ")",
		XLabel: "metric index (0=overall util, 1=SLO rate, 2=placed opportunistically)",
		YLabel: "value",
	}
	strategies := []string{"most-matched", "first-fit", "worst-fit", "random"}
	cells, err := o.replicate(o.seeds(0), len(strategies), func(v int, _ int64) sim.Config {
		cfg := o.hotConfig(scheduler.CORP, o.scale(300, 150))
		cfg.Heterogeneous = true
		cfg.Scheduler.CorpPlacement = strategies[v]
		return cfg
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: strategies: %w", err)
	}
	for v, name := range strategies {
		f.Series = append(f.Series, metricRow(name, cells[v], overall, sloRate, opportunistic))
	}
	return f, nil
}

// ExtensionPackK compares pairwise packing (the paper) against singleton
// and k = 3 entities under contention.
func ExtensionPackK(o Options) (*Figure, error) {
	f := &Figure{
		ID:     "ext-packk",
		Title:  "Extension: entity size k in CORP packing (" + o.Profile.String() + ")",
		XLabel: "metric index (0=overall util, 1=SLO rate, 2=placed opportunistically)",
		YLabel: "value",
	}
	ks := []int{1, 2, 3}
	cells, err := o.replicate(o.seeds(0), len(ks), func(v int, _ int64) sim.Config {
		cfg := o.hotConfig(scheduler.CORP, o.scale(300, 150))
		cfg.Scheduler.CorpPackK = ks[v]
		cfg.Scheduler.DisablePacking = ks[v] == 1
		return cfg
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: packK: %w", err)
	}
	for v, k := range ks {
		f.Series = append(f.Series, metricRow(fmt.Sprintf("k=%d", k), cells[v], overall, sloRate, opportunistic))
	}
	return f, nil
}

// ExtensionMixedWorkload measures the cooperative mixed-workload mode: the
// same short-job population with increasing long-lived service load.
func ExtensionMixedWorkload(o Options) (*Figure, error) {
	f := &Figure{
		ID:     "ext-mixed",
		Title:  "Extension: cooperative long-lived + short-lived workload (" + o.Profile.String() + ")",
		XLabel: "long-lived jobs",
		YLabel: "value",
	}
	jobs := o.scale(200, 100)
	util := &metrics.Series{Label: "short-job util"}
	cluster := &metrics.Series{Label: "cluster util"}
	slo := &metrics.Series{Label: "SLO rate"}
	opp := &metrics.Series{Label: "opportunistic share"}
	f.Series = append(f.Series, util, cluster, slo, opp)
	counts := []int{0, 10, 25, 50}
	if o.Quick {
		counts = []int{0, 20}
	}
	cfgs := make([]sim.Config, len(counts))
	for i, long := range counts {
		cfgs[i] = o.baseConfig(scheduler.CORP, jobs)
		cfgs[i].LongJobs = long
	}
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, fmt.Errorf("experiments: mixed: %w", err)
	}
	for i, long := range counts {
		r := results[i]
		x := float64(long)
		util.Append(x, r.Overall)
		cluster.Append(x, r.ClusterOverall)
		slo.Append(x, r.SLORate)
		placed := r.PlacedOpportunistic + r.PlacedFresh
		if placed > 0 {
			opp.Append(x, float64(r.PlacedOpportunistic)/float64(placed))
		} else {
			opp.Append(x, 0)
		}
		f.Notes = append(f.Notes, fmt.Sprintf("long=%d: placed %d/%d long jobs",
			long, r.LongPlaced, long))
	}
	return f, nil
}

// ExtensionOracleGap measures how much headroom remains between CORP and a
// perfect-foresight oracle sharing CORP's packing and placement — the
// tightest upper bound on what better prediction could buy.
func ExtensionOracleGap(o Options) (*Figure, error) {
	f := &Figure{
		ID:     "ext-oracle",
		Title:  "Extension: CORP vs perfect-foresight oracle (" + o.Profile.String() + ")",
		XLabel: "metric index (0=overall util, 1=SLO rate, 2=pred error rate)",
		YLabel: "value",
	}
	schemes := []scheduler.Scheme{scheduler.Oracle, scheduler.CORP, scheduler.RCCR}
	cells, err := o.replicate(o.seeds(0), len(schemes), func(v int, _ int64) sim.Config {
		return o.hotConfig(schemes[v], o.scale(300, 150))
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: oracle gap: %w", err)
	}
	for v, sc := range schemes {
		f.Series = append(f.Series, metricRow(sc.String(), cells[v], overall, sloRate, predErrorRate))
	}
	return f, nil
}
