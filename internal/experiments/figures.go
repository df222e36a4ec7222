package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

// paperFigure starts one of the four experiments the paper runs on both
// testbeds: Fig. n on the cluster is Fig. n+4 on EC2 (7–10 → 11–14).
func (o Options) paperFigure(n int, title, xlabel, ylabel string) *Figure {
	if o.Profile == cluster.ProfileEC2 {
		n += 4
	}
	return &Figure{
		ID:     fmt.Sprintf("fig%02d", n),
		Title:  fmt.Sprintf("Fig. %d: %s (%s)", n, title, o.Profile),
		XLabel: xlabel,
		YLabel: ylabel,
	}
}

// Fig06PredictionError reproduces Fig. 6: CPU prediction error rate versus
// the number of jobs, for all four schemes on the cluster profile.
// Expected shape: CORP < RCCR < CloudScale ≈< DRA, roughly flat in the
// number of jobs.
func Fig06PredictionError(o Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig06",
		Title:  "Prediction error rate of different methods (" + o.Profile.String() + ")",
		XLabel: "number of jobs",
		YLabel: "prediction error rate",
	}
	series := newSchemeSeries(f)
	for _, jobs := range o.jobCounts() {
		// Each x point uses its own workload instance, as rerunning the
		// testbed with a different job count would.
		results, err := o.runSchemes(o.Seed+int64(jobs), jobs)
		if err != nil {
			return nil, err
		}
		for v, r := range results {
			series[v].Append(float64(jobs), r.PredictionErrorRate)
		}
	}
	return f, nil
}

// Fig07Utilization reproduces Fig. 7 (and Fig. 11 when Options.Profile is
// EC2): per-resource utilization versus the number of jobs. Series labels
// are "<scheme>/<kind>" plus "<scheme>/overall". Expected shape:
// CORP > RCCR > CloudScale > DRA per kind.
func Fig07Utilization(o Options) (*Figure, error) {
	f := o.paperFigure(7, "resource utilization vs number of jobs", "number of jobs", "utilization")
	kinds := resource.Kinds()
	for _, sc := range schemeOrder {
		for _, k := range kinds {
			f.Series = append(f.Series, &metrics.Series{Label: sc.String() + "/" + k.String()})
		}
		f.Series = append(f.Series, &metrics.Series{Label: sc.String() + "/overall"})
	}
	for _, jobs := range o.jobCounts() {
		results, err := o.runSchemes(o.Seed+int64(jobs), jobs)
		if err != nil {
			return nil, err
		}
		for v, r := range results {
			series := f.Series[v*(len(kinds)+1):]
			for i, k := range kinds {
				series[i].Append(float64(jobs), r.Utilization[k])
			}
			series[len(kinds)].Append(float64(jobs), r.Overall)
		}
	}
	return f, nil
}

// riskLevels are the per-scheme knobs swept to trade SLO violations for
// utilization in Figs. 8/12 ("We varied the SLO violation rate by varying
// the probability threshold P_th"). Each scheme varies its own
// conservatism parameter, staying within its design envelope: CORP its
// Eq. 21 gate and confidence level, RCCR its confidence level, CloudScale
// its padding, DRA its bulk factor.
type riskLevel struct {
	corpPth    float64 // Eq. 21 gate
	corpEta    float64 // CORP confidence level
	rccrEta    float64 // RCCR confidence level
	csPad      float64 // CloudScale predictor padding factor
	csAllocPad float64 // CloudScale allocation padding factor
	draBulk    float64 // DRA allocation bulk factor
	tightness  float64 // global allocation tightness (the operator's
	// aggressiveness setting: tighter allocations raise utilization and
	// SLO risk together, the axis the paper's Fig. 8 trades along)
}

func riskLevels(quick bool) []riskLevel {
	levels := []riskLevel{
		{0.95, 0.95, 0.95, 1.2, 1.45, 1.8, 1.00},
		{0.85, 0.90, 0.90, 0.9, 1.4, 1.74, 0.96},
		{0.70, 0.80, 0.80, 0.65, 1.35, 1.68, 0.92},
		{0.50, 0.70, 0.65, 0.45, 1.3, 1.62, 0.88},
		{0.30, 0.55, 0.50, 0.25, 1.25, 1.56, 0.84},
		{0.15, 0.40, 0.35, 0.10, 1.2, 1.5, 0.80},
	}
	if quick {
		return []riskLevel{levels[0], levels[2], levels[4]}
	}
	return levels
}

// Fig08UtilVsSLO reproduces Fig. 8 (Fig. 12 on EC2): overall utilization
// versus the achieved SLO violation rate, produced by sweeping each
// scheme's conservatism knob. Expected shape: utilization rises with the
// tolerated SLO violation rate, and at any SLO level
// CORP > RCCR > CloudScale > DRA.
func Fig08UtilVsSLO(o Options) (*Figure, error) {
	f := o.paperFigure(8, "overall utilization vs SLO violation rate", "SLO violation rate", "overall utilization")
	series := newSchemeSeries(f)
	jobs := o.scale(300, 200)
	for _, lvl := range riskLevels(o.Quick) {
		cells, err := o.replicate(o.seeds(0), len(schemeOrder), func(v int, _ int64) sim.Config {
			cfg := o.hotConfig(schemeOrder[v], jobs)
			cfg.Scheduler.AllocTightness = lvl.tightness
			switch schemeOrder[v] {
			case scheduler.CORP:
				cfg.Scheduler.Corp.Pth = lvl.corpPth
				cfg.Scheduler.Corp.Eta = lvl.corpEta
			case scheduler.RCCR:
				cfg.Scheduler.RCCR.Eta = lvl.rccrEta
			case scheduler.CloudScale:
				cfg.Scheduler.CloudScale.PadFactor = lvl.csPad
				cfg.Scheduler.CloudScalePad = lvl.csAllocPad
			case scheduler.DRA:
				cfg.Scheduler.DRABulk = lvl.draBulk
			}
			return cfg
		})
		if err != nil {
			return nil, err
		}
		for v, cell := range cells {
			series[v].Append(mean(cell, sloRate), mean(cell, overall))
		}
	}
	sortSeriesByX(f)
	return f, nil
}

// confidenceLevels is the Fig. 9/13 x-axis: η from 50% to 90% (Table II).
func confidenceLevels(quick bool) []float64 {
	if quick {
		return []float64{0.5, 0.7, 0.9}
	}
	return []float64{0.5, 0.6, 0.7, 0.8, 0.9}
}

// Fig09SLOVsConfidence reproduces Fig. 9 (Fig. 13 on EC2): SLO violation
// rate versus the confidence level η. Per the paper's own reading ("the
// higher the confidence level, the more conservative the prediction, and
// the less the amount of resource that will be allocated to jobs in the
// risk of SLO violations"), η drives every scheme's conservatism: CORP's
// confidence interval and Eq. 21 gate, RCCR's confidence interval, and
// CloudScale's padding (mapped onto the same [0.5, 0.9] axis). DRA has no
// prediction-conservatism mechanism at all, so its line is flat — and the
// highest, as in the paper.
func Fig09SLOVsConfidence(o Options) (*Figure, error) {
	f := o.paperFigure(9, "SLO violation rate vs confidence level", "confidence level", "SLO violation rate")
	series := newSchemeSeries(f)
	jobs := o.scale(300, 200)
	for _, eta := range confidenceLevels(o.Quick) {
		// SLO violations are rare events; use an extra replication beyond
		// the default seed set.
		cells, err := o.replicate(o.seeds(1), len(schemeOrder), func(v int, _ int64) sim.Config {
			cfg := o.hotConfig(schemeOrder[v], jobs)
			switch schemeOrder[v] {
			case scheduler.CORP:
				cfg.Scheduler.Corp.Eta = eta
				cfg.Scheduler.Corp.Pth = eta
			case scheduler.RCCR:
				cfg.Scheduler.RCCR.Eta = eta
			case scheduler.CloudScale:
				// Map η ∈ [0.5, 0.9] onto padding ∈ [0.1, 1.0].
				cfg.Scheduler.CloudScale.PadFactor = 0.1 + (eta-0.5)/0.4*0.9
			}
			return cfg
		})
		if err != nil {
			return nil, err
		}
		for v, cell := range cells {
			series[v].Append(eta, mean(cell, sloRate))
		}
	}
	return f, nil
}

// Fig10Overhead reproduces Fig. 10 (Fig. 14 on EC2): the latency of
// allocating resources to 300 jobs, per scheme. The x value is the scheme
// index in comparison order; y is milliseconds. Expected shape: CORP
// slightly highest (DNN compute), all EC2 numbers above their cluster
// twins (communication).
func Fig10Overhead(o Options) (*Figure, error) {
	f := o.paperFigure(10, "overhead of allocating resources to 300 jobs",
		"scheme index (CORP, RCCR, CloudScale, DRA)", "latency (ms)")
	results, err := o.runSchemes(o.Seed, o.scale(300, 150))
	if err != nil {
		return nil, err
	}
	for v, s := range newSchemeSeries(f) {
		oh := results[v].Overhead
		s.Append(float64(v), oh.TotalMillis())
		f.Notes = append(f.Notes, fmt.Sprintf("%s: compute %.1fms, comm %.1fms, %d ops",
			s.Label, oh.ComputeMicros/1000, oh.CommMicros/1000, oh.Operations))
	}
	return f, nil
}

// TableII returns the paper's parameter settings as implemented, for the
// corpbench "tableII" target and the README.
func TableII() *Figure {
	f := &Figure{
		ID:     "tableII",
		Title:  "Table II: parameter settings",
		XLabel: "parameter",
		YLabel: "value",
	}
	add := func(label string, v float64) {
		s := &metrics.Series{Label: label}
		s.Append(0, v)
		f.Series = append(f.Series, s)
	}
	add("servers (N_p) min", 30)
	add("servers (N_p) max", 50)
	add("VMs (N_v) min", 100)
	add("VMs (N_v) max", 400)
	add("jobs |J| min", 50)
	add("jobs |J| max", 300)
	add("resource types l", 3)
	add("P_th", 0.95)
	add("DNN layers h", 4)
	add("DNN units per layer", 50)
	add("HMM states H", 3)
	add("significance min", 0.05)
	add("significance max", 0.30)
	add("confidence min", 0.50)
	add("confidence max", 0.90)
	return f
}

// newSchemeSeries registers one series per scheme on the figure and
// returns them in comparison order.
func newSchemeSeries(f *Figure) []*metrics.Series {
	for _, sc := range schemeOrder {
		f.Series = append(f.Series, &metrics.Series{Label: sc.String()})
	}
	return f.Series[len(f.Series)-len(schemeOrder):]
}
