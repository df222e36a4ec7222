package predict

import (
	"repro/internal/resource"
	"repro/internal/stats"
)

// RCCRConfig parameterizes the RCCR baseline predictor.
type RCCRConfig struct {
	// Window is L; zero defaults to 6.
	Window int
	// Alpha and Beta are the Holt smoothing parameters; zeros default to
	// 0.5 / 0.1.
	Alpha, Beta float64
	// Eta is the confidence level for the lower-bound adjustment; zero
	// defaults to 0.80.
	Eta float64
	// RefreshEvery is how many Predict calls share one forecast. RCCR
	// targets long-term availability SLOs, so it forecasts a long window
	// and commits to it (the paper's critique: "uses a time series
	// forecasting method ... for long-running service jobs ... not
	// suitable for short-lived jobs"). Zero defaults to 3.
	RefreshEvery int
}

func (c RCCRConfig) withDefaults() RCCRConfig {
	if c.Window <= 0 {
		c.Window = 6
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.5
	}
	if c.Beta <= 0 {
		c.Beta = 0.1
	}
	if c.Eta <= 0 {
		c.Eta = 0.80
	}
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 3
	}
	return c
}

// RCCRPredictor reimplements the paper's RCCR baseline: exponential
// smoothing (ETS) time-series forecasting of the unused resource, with the
// lower bound of the confidence interval taken as the prediction. No
// fluctuation handling, no preemption gate (its opportunism is ungated).
type RCCRPredictor struct {
	cfg    RCCRConfig
	track  tracker
	holt   []stats.HoltETS // one per kind
	calls  int
	cached resource.Vector
}

// NewRCCRPredictor builds an RCCR predictor for one VM: a fleet of one.
func NewRCCRPredictor(cfg RCCRConfig, capacity resource.Vector) *RCCRPredictor {
	return &NewRCCRFleet(cfg, []resource.Vector{capacity})[0]
}

// NewRCCRFleet builds one RCCR predictor per VM capacity, carving the
// predictors, their trackers and their Holt forecasters from a few slabs.
func NewRCCRFleet(cfg RCCRConfig, caps []resource.Vector) []RCCRPredictor {
	cfg = cfg.withDefaults()
	// RCCR reads its history only through the tracker's TailMean(L) and,
	// before Holt is ready, histMean over at most one sample: the 2L
	// minimum ring holds both.
	slab := newTrackerSlab(len(caps), cfg.Window, 0, false)
	holt := stats.NewHoltETSFleet(len(caps)*resource.NumKinds, cfg.Alpha, cfg.Beta)
	fleet := make([]RCCRPredictor, len(caps))
	for i, c := range caps {
		k0, k1 := i*resource.NumKinds, (i+1)*resource.NumKinds
		fleet[i] = RCCRPredictor{cfg: cfg, track: slab.tracker(i, c), holt: holt[k0:k1:k1]}
	}
	return fleet
}

// Name implements Predictor.
func (p *RCCRPredictor) Name() string { return "RCCR" }

// Observe implements Predictor.
func (p *RCCRPredictor) Observe(actual resource.Vector) {
	p.track.observe(actual)
	for k := range p.holt {
		p.holt[k].Observe(actual[k])
	}
}

// Predict implements Predictor: Holt forecast over the long horizon it
// commits to, minus the confidence-interval margin (the paper: "chose the
// lower bound of the confidence interval as the predicted value"). The
// forecast refreshes only every RefreshEvery-th call.
func (p *RCCRPredictor) Predict() Prediction {
	if p.calls%p.cfg.RefreshEvery == 0 {
		var out resource.Vector
		z := stats.ZForConfidence(p.cfg.Eta)
		horizon := (p.cfg.RefreshEvery*p.cfg.Window + 1) / 2
		for _, k := range resource.Kinds() {
			var yhat float64
			if p.holt[k].Ready() {
				yhat = p.holt[k].Forecast(horizon)
			} else {
				yhat = p.track.histMean(k)
			}
			yhat -= p.track.errStdDev(k) * z
			if yhat < 0 {
				yhat = 0
			}
			out[k] = yhat
		}
		p.cached = p.track.clampToCapacity(out)
	}
	p.calls++
	p.track.recordPrediction(p.cached)
	return Prediction{Unused: p.cached, Unlocked: true}
}

// DrainOutcomes implements Predictor.
func (p *RCCRPredictor) DrainOutcomes() []ErrorSample {
	return p.track.drainOutcomes()
}

// AppendOutcomes implements Predictor.
func (p *RCCRPredictor) AppendOutcomes(dst []ErrorSample) []ErrorSample {
	return p.track.appendOutcomes(dst)
}

// CloudScaleConfig parameterizes the CloudScale baseline predictor.
type CloudScaleConfig struct {
	// Window is L; zero defaults to 6.
	Window int
	// SignatureLen is how much history the periodogram inspects; zero
	// defaults to 32 slots (the direct DFT is quadratic in this).
	SignatureLen int
	// SignatureShare is the spectral-energy share a dominant period must
	// carry; zero defaults to 0.5 (PRESS's threshold).
	SignatureShare float64
	// MarkovBins quantizes usage for the Markov fallback; zero defaults
	// to 8.
	MarkovBins int
	// PadFactor scales the adaptive padding; zero defaults to 0.5.
	// The Fig. 8 risk sweep varies it.
	PadFactor float64
}

func (c CloudScaleConfig) withDefaults() CloudScaleConfig {
	if c.Window <= 0 {
		c.Window = 6
	}
	if c.SignatureLen <= 0 {
		c.SignatureLen = 32
	}
	if c.SignatureShare <= 0 {
		c.SignatureShare = 0.5
	}
	if c.MarkovBins <= 0 {
		c.MarkovBins = 8
	}
	if c.PadFactor <= 0 {
		c.PadFactor = 0.5
	}
	return c
}

// CloudScalePredictor reimplements the CloudScale baseline: PRESS-style
// signature prediction when the history has a dominant period, a
// discrete-time Markov chain otherwise, plus adaptive padding driven by
// recent burstiness and recent prediction errors. Short-lived workloads
// rarely expose a signature, so the Markov path dominates — the paper's
// explanation for CloudScale's weaker accuracy here.
type CloudScalePredictor struct {
	cfg    CloudScaleConfig
	track  tracker
	chains []stats.MarkovChain // one per kind
	errEW  [resource.NumKinds]stats.EWMA

	// Signature detection is quadratic, and CloudScale's premise is that
	// patterns are stable, so the detected (period, ok) pair is cached
	// and recomputed only every sigRefresh-th Predict.
	calls     int
	sigPeriod [resource.NumKinds]int
	sigOK     [resource.NumKinds]bool

	// spec holds the spectrum and signature buffers the detection and
	// replay paths reuse across Predict calls.
	spec stats.PeriodScratch
}

// sigRefresh is how many Predict calls reuse one signature detection.
const sigRefresh = 4

// NewCloudScalePredictor builds a CloudScale predictor for one VM: a fleet
// of one.
func NewCloudScalePredictor(cfg CloudScaleConfig, capacity resource.Vector) *CloudScalePredictor {
	return &NewCloudScaleFleet(cfg, []resource.Vector{capacity})[0]
}

// NewCloudScaleFleet builds one CloudScale predictor per VM capacity,
// carving the predictors, their trackers and their Markov chains (one per
// kind, over [0, capacity]) from a few slabs.
func NewCloudScaleFleet(cfg CloudScaleConfig, caps []resource.Vector) []CloudScalePredictor {
	cfg = cfg.withDefaults()
	slab := newTrackerSlab(len(caps), cfg.Window, historyLen, true)
	his := make([]float64, 0, len(caps)*resource.NumKinds)
	for _, c := range caps {
		his = append(his, c[:]...) // a zero capacity widens to [0, 1]
	}
	chains := stats.NewMarkovChains(cfg.MarkovBins, 0, his)
	fleet := make([]CloudScalePredictor, len(caps))
	for i, c := range caps {
		k0, k1 := i*resource.NumKinds, (i+1)*resource.NumKinds
		p := &fleet[i]
		*p = CloudScalePredictor{cfg: cfg, track: slab.tracker(i, c), chains: chains[k0:k1:k1]}
		for k := range p.errEW {
			p.errEW[k] = stats.NewEWMA(0.3)
		}
	}
	return fleet
}

// Name implements Predictor.
func (p *CloudScalePredictor) Name() string { return "CloudScale" }

// Observe implements Predictor.
func (p *CloudScalePredictor) Observe(actual resource.Vector) {
	before := len(p.track.matured)
	p.track.observe(actual)
	for k := range p.chains {
		p.chains[k].Observe(actual[k])
	}
	// Fold the errors that matured in this very slot into the padding
	// EWMA (earlier ones were already folded). Underestimates feed zero
	// so the padding decays after a run of safe windows instead of
	// ratcheting up forever.
	for _, s := range p.track.matured[before:] {
		if s.Error < 0 { // overestimate: predicted more unused than real
			p.errEW[s.Kind].Observe(-s.Error)
		} else {
			p.errEW[s.Kind].Observe(0)
		}
	}
}

// Predict implements Predictor.
func (p *CloudScalePredictor) Predict() Prediction {
	refreshSig := p.calls%sigRefresh == 0
	p.calls++
	var out resource.Vector
	for _, k := range resource.Kinds() {
		vals := p.track.histValues(k)
		var yhat float64
		sig := vals
		if len(sig) > p.cfg.SignatureLen {
			sig = sig[len(sig)-p.cfg.SignatureLen:]
		}
		yhat = p.chains[k].Predict((p.cfg.Window + 1) / 2)
		if refreshSig {
			p.sigPeriod[k], p.sigOK[k] = p.spec.DominantPeriod(sig, p.cfg.SignatureShare)
		}
		if p.sigOK[k] {
			if m, ok := p.spec.SignatureMean(sig, p.sigPeriod[k], p.cfg.Window); ok {
				yhat = m
			}
		}
		// Adaptive padding: the larger of the recent burst magnitude and
		// the recent overestimation error, scaled by PadFactor, subtracted
		// to stay conservative.
		pad := p.burst(vals)
		if e := p.errEW[k].Value(); e > pad {
			pad = e
		}
		yhat -= p.cfg.PadFactor * pad
		if yhat < 0 {
			yhat = 0
		}
		out[k] = yhat
	}
	out = p.track.clampToCapacity(out)
	p.track.recordPrediction(out)
	return Prediction{Unused: out, Unlocked: true}
}

// burst returns half the recent downside deviation (mean − min over the
// last 2L slots): for unused-resource forecasting the risk CloudScale pads
// against is the unused amount dipping below the forecast.
func (p *CloudScalePredictor) burst(vals []float64) float64 {
	n := 2 * p.cfg.Window
	if len(vals) > n {
		vals = vals[len(vals)-n:]
	}
	if len(vals) == 0 {
		return 0
	}
	lo, _, err := stats.MinMax(vals)
	if err != nil {
		return 0
	}
	return (stats.Mean(vals) - lo) / 2
}

// DrainOutcomes implements Predictor.
func (p *CloudScalePredictor) DrainOutcomes() []ErrorSample {
	return p.track.drainOutcomes()
}

// AppendOutcomes implements Predictor.
func (p *CloudScalePredictor) AppendOutcomes(dst []ErrorSample) []ErrorSample {
	return p.track.appendOutcomes(dst)
}

// DRAConfig parameterizes the DRA baseline estimator.
type DRAConfig struct {
	// Window is L; zero defaults to 6.
	Window int
	// AvgLen is the run-time estimator's averaging window; zero defaults
	// to 12 slots.
	AvgLen int
	// RefreshEvery is how many Predict calls share one periodic
	// estimate; DRA's run-time software only estimates "periodically",
	// so intermediate windows reuse a stale value. Zero defaults to 4.
	RefreshEvery int
}

func (c DRAConfig) withDefaults() DRAConfig {
	if c.Window <= 0 {
		c.Window = 6
	}
	if c.AvgLen <= 0 {
		c.AvgLen = 12
	}
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 4
	}
	return c
}

// DRAPredictor reimplements DRA's run-time estimator: a plain windowed
// average of recent unused amounts. No fluctuation handling, no confidence
// interval, and never unlocked — DRA is demand-based and does not
// reallocate allocated-but-unused resources opportunistically.
type DRAPredictor struct {
	cfg    DRAConfig
	track  tracker
	calls  int
	cached resource.Vector
}

// NewDRAPredictor builds a DRA estimator for one VM: a fleet of one.
func NewDRAPredictor(cfg DRAConfig, capacity resource.Vector) *DRAPredictor {
	return &NewDRAFleet(cfg, []resource.Vector{capacity})[0]
}

// NewDRAFleet builds one DRA estimator per VM capacity, carving the
// estimators and their trackers from a few slabs.
func NewDRAFleet(cfg DRAConfig, caps []resource.Vector) []DRAPredictor {
	cfg = cfg.withDefaults()
	// DRA reads its history only as TailMean(AvgLen) and the tracker's
	// TailMean(L): a ring of max(AvgLen, 2L) holds both.
	slab := newTrackerSlab(len(caps), cfg.Window, cfg.AvgLen, false)
	fleet := make([]DRAPredictor, len(caps))
	for i, c := range caps {
		fleet[i] = DRAPredictor{cfg: cfg, track: slab.tracker(i, c)}
	}
	return fleet
}

// Name implements Predictor.
func (p *DRAPredictor) Name() string { return "DRA" }

// Observe implements Predictor.
func (p *DRAPredictor) Observe(actual resource.Vector) {
	p.track.observe(actual)
}

// Predict implements Predictor: a windowed mean, refreshed only every
// RefreshEvery-th call (stale in between).
func (p *DRAPredictor) Predict() Prediction {
	if p.calls%p.cfg.RefreshEvery == 0 {
		p.cached = p.track.clampToCapacity(p.track.recentMean(p.cfg.AvgLen))
	}
	p.calls++
	p.track.recordPrediction(p.cached)
	return Prediction{Unused: p.cached, Unlocked: false}
}

// DrainOutcomes implements Predictor.
func (p *DRAPredictor) DrainOutcomes() []ErrorSample {
	return p.track.drainOutcomes()
}

// AppendOutcomes implements Predictor.
func (p *DRAPredictor) AppendOutcomes(dst []ErrorSample) []ErrorSample {
	return p.track.appendOutcomes(dst)
}

// OraclePredictor returns the true future mean unused resource — an upper
// bound no real scheme can reach. The simulator wires the actual per-slot
// series in via SetFuture; the experiment harness uses the oracle to
// measure how much headroom remains above CORP.
type OraclePredictor struct {
	track  tracker
	future []resource.Vector
	window int
}

// NewOracleFleet builds one oracle per VM capacity, carving the oracles and
// their trackers from a few slabs.
func NewOracleFleet(window int, caps []resource.Vector) []OraclePredictor {
	if window < 1 {
		window = 6
	}
	// The oracle's only history read is TailMean(window): the 2L minimum
	// ring holds it.
	slab := newTrackerSlab(len(caps), window, 0, false)
	fleet := make([]OraclePredictor, len(caps))
	for i, c := range caps {
		fleet[i] = OraclePredictor{track: slab.tracker(i, c), window: window}
	}
	return fleet
}

// SetFuture provides the full actual unused series, indexed by slot.
func (p *OraclePredictor) SetFuture(series []resource.Vector) {
	p.future = series
}

// Name implements Predictor.
func (p *OraclePredictor) Name() string { return "Oracle" }

// Observe implements Predictor.
func (p *OraclePredictor) Observe(actual resource.Vector) {
	p.track.observe(actual)
}

// Predict implements Predictor: the exact mean of the next window, read
// from the future series (falling back to the recent mean when the series
// is exhausted or absent).
func (p *OraclePredictor) Predict() Prediction {
	slot := p.track.slot
	var out resource.Vector
	if p.future != nil && slot < len(p.future) {
		end := slot + p.window
		if end > len(p.future) {
			end = len(p.future)
		}
		n := float64(end - slot)
		for s := slot; s < end; s++ {
			out = out.Add(p.future[s])
		}
		out = out.Scale(1 / n)
	} else {
		out = p.track.recentMean(p.window)
	}
	out = p.track.clampToCapacity(out)
	p.track.recordPrediction(out)
	return Prediction{Unused: out, Unlocked: true}
}

// DrainOutcomes implements Predictor.
func (p *OraclePredictor) DrainOutcomes() []ErrorSample {
	return p.track.drainOutcomes()
}

// AppendOutcomes implements Predictor.
func (p *OraclePredictor) AppendOutcomes(dst []ErrorSample) []ErrorSample {
	return p.track.appendOutcomes(dst)
}
