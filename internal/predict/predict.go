// Package predict implements the paper's prediction pipeline and the three
// baseline predictors it is evaluated against.
//
// Every predictor forecasts, per VM, the amount of allocated-but-unused
// resource over the next window of L slots:
//
//   - CORP (Section III-A): a deep neural network trained online on the
//     recent unused-resource history (Eqs. 5–8), corrected for peak/valley
//     fluctuations by an HMM (Eqs. 9–17), made conservative by the lower
//     confidence-interval bound (Eqs. 18–19), and gated by the
//     probabilistic preemption criterion (Eq. 21).
//   - RCCR (Carvalho et al., SoCC'14, as reimplemented in Section IV):
//     exponential-smoothing time-series forecasting with a
//     confidence-interval lower bound.
//   - CloudScale (Shen et al., SoCC'11): PRESS-style signature detection
//     with a discrete-time Markov chain fallback and adaptive padding.
//   - DRA (Shanmuganathan et al., SIGMETRICS'13): periodic run-time
//     estimation by windowed averaging, with no fluctuation handling.
package predict

import (
	"math"

	"repro/internal/resource"
	"repro/internal/stats"
)

// Prediction is one window forecast.
type Prediction struct {
	// Unused is the forecast mean unused resource over the next window.
	Unused resource.Vector
	// Unlocked reports whether the forecast passes the scheme's safety
	// gate (for CORP, Eq. 21); only unlocked predictions may back
	// opportunistic allocation.
	Unlocked bool
}

// Predictor forecasts one VM's unused resources. Implementations are not
// safe for concurrent use; create one per VM (they may share read-mostly
// state such as a common DNN brain).
type Predictor interface {
	// Name identifies the scheme ("CORP", "RCCR", "CloudScale", "DRA").
	Name() string
	// Observe feeds the actual unused vector of the current slot.
	// Predictors must be Observed exactly once per slot, in order.
	Observe(actual resource.Vector)
	// Predict forecasts the mean unused vector for the window of the
	// next L slots.
	Predict() Prediction
	// DrainOutcomes returns and clears the matured prediction errors
	// (actual − predicted, per resource kind) accumulated since the last
	// call; the experiment harness aggregates them into Fig. 6's
	// prediction error rate.
	DrainOutcomes() []ErrorSample
	// AppendOutcomes is DrainOutcomes into a caller-owned buffer, letting
	// the scheduler reuse one slice across the whole fleet instead of
	// allocating per predictor.
	AppendOutcomes(dst []ErrorSample) []ErrorSample
}

// ErrorSample is one matured prediction error δ = actual − predicted for
// one resource kind (Eq. 20, evaluated at window end).
type ErrorSample struct {
	Kind  resource.Kind
	Error float64
}

// pendingPred is a forecast waiting for its window to elapse.
type pendingPred struct {
	madeAt int
	value  resource.Vector
}

// tracker is the shared bookkeeping every predictor embeds by value: per-kind
// history windows, matured prediction errors (Eq. 20), and the pending
// prediction queue. A fleet's trackers are carved from one trackerSlab.
type tracker struct {
	window   int // L
	capacity resource.Vector
	slot     int
	hist     []stats.Window // one per kind
	errs     []stats.Window // one per kind
	pending  []pendingPred
	matured  []ErrorSample
	// maturedPreds counts matured predictions; the first coldSkip of
	// them are excluded from the σ̂/Eq. 21 windows (they reflect an
	// untrained model, and in a short run they would dominate the
	// confidence-interval width for its whole duration).
	maturedPreds int

	// linear is the reused linearization buffer histValues and errValues
	// copy a ring into: they run once per kind per slot across the whole
	// cluster, so a per-call allocation would dominate the observe path's
	// heap traffic.
	linear []float64
}

// coldSkip is how many initial matured predictions are kept out of the
// error-statistics windows.
const coldSkip = 4

// errLen is the capacity of each kind's matured-error window.
const errLen = 40

// historyLen is how many slots of history CORP and CloudScale keep per
// kind: CORP's Δ-slot DNN input and HMM observation sequence read from it,
// and so do CloudScale's signature window (SignatureLen, capped at this)
// and burst estimate.
const historyLen = 120

// trackerSlab holds the slabs a fleet's trackers are carved from: the
// history and error rings, the linearization buffers, and the matured and
// pending queues, each one allocation for the whole fleet. Carved slices
// are full-capacity subslices, so a queue that outgrows its share
// reallocates on its own instead of writing into a neighbour's.
type trackerSlab struct {
	window, linearLen int
	hist, errs        []stats.Window
	linear            []float64
	matured           []ErrorSample
	pending           []pendingPred
}

// newTrackerSlab sizes the slabs for n trackers with prediction window L
// and histLen slots of history (raised to 2L). linearizeHist says whether
// the fleet's predictors read their history linearized (histValues), which
// needs a history-sized buffer; otherwise it only has to hold an error
// window. Each tracker's queues hold what a predictor refreshed once per
// window needs: one pending forecast and one matured sample per kind
// between drains.
func newTrackerSlab(n, window, histLen int, linearizeHist bool) trackerSlab {
	if window < 1 {
		window = 1
	}
	if histLen < 2*window {
		histLen = 2 * window
	}
	linearLen := errLen
	if linearizeHist {
		linearLen = max(histLen, errLen)
	}
	return trackerSlab{
		window: window, linearLen: linearLen,
		hist:    stats.NewWindows(n*resource.NumKinds, histLen),
		errs:    stats.NewWindows(n*resource.NumKinds, errLen),
		linear:  make([]float64, n*linearLen),
		matured: make([]ErrorSample, n*resource.NumKinds),
		pending: make([]pendingPred, n),
	}
}

// tracker returns the fleet's i-th tracker, for a VM of the given capacity.
func (s *trackerSlab) tracker(i int, capacity resource.Vector) tracker {
	k0, k1 := i*resource.NumKinds, (i+1)*resource.NumKinds
	l0 := i * s.linearLen
	return tracker{
		window:   s.window,
		capacity: capacity,
		hist:     s.hist[k0:k1:k1],
		errs:     s.errs[k0:k1:k1],
		pending:  s.pending[i : i : i+1],
		matured:  s.matured[k0:k0:k1],
		linear:   s.linear[l0 : l0 : l0+s.linearLen],
	}
}

// observe records one actual sample and matures any due predictions.
func (t *tracker) observe(actual resource.Vector) {
	for k := range t.hist {
		t.hist[k].Push(actual[k])
	}
	t.slot++
	// A prediction made at slot s forecasts the mean over (s, s+L]; it
	// matures when slot reaches s+L.
	keep := t.pending[:0]
	for _, p := range t.pending {
		if t.slot-p.madeAt < t.window {
			keep = append(keep, p)
			continue
		}
		actualMean := t.recentMean(t.window)
		t.maturedPreds++
		for k := range actualMean {
			delta := actualMean[k] - p.value[k]
			if t.maturedPreds > coldSkip {
				t.errs[k].Push(delta)
			}
			t.matured = append(t.matured, ErrorSample{Kind: resource.Kind(k), Error: delta})
		}
	}
	t.pending = keep
}

// recentMean returns the element-wise mean of the last n observed samples
// (fewer if history is shorter). Window.TailMean folds the ring tail in the
// same oldest-first order the old full linearization did, so the result is
// bit-identical without copying the whole history per maturation.
func (t *tracker) recentMean(n int) resource.Vector {
	var out resource.Vector
	for k := range t.hist {
		out[k] = t.hist[k].TailMean(n)
	}
	return out
}

// recordPrediction queues a fresh forecast for later error measurement.
func (t *tracker) recordPrediction(v resource.Vector) {
	t.pending = append(t.pending, pendingPred{madeAt: t.slot, value: v})
}

// drainOutcomes hands the matured samples to the caller. Ownership of the
// returned slice transfers to the caller, so the internal buffer is
// dropped rather than truncated.
func (t *tracker) drainOutcomes() []ErrorSample {
	out := t.matured
	t.matured = nil
	return out
}

// appendOutcomes appends the matured samples to dst and clears them,
// keeping the internal buffer's capacity for the next window.
func (t *tracker) appendOutcomes(dst []ErrorSample) []ErrorSample {
	dst = append(dst, t.matured...)
	t.matured = t.matured[:0]
	return dst
}

// histValues returns the full per-kind history, oldest first. The slice
// is the tracker's linearization buffer, overwritten by the next histValues
// or errValues call; callers must consume it before re-entering the tracker
// and must not retain it.
func (t *tracker) histValues(k resource.Kind) []float64 {
	t.linear = t.hist[k].AppendValues(t.linear[:0])
	return t.linear
}

// histMean returns the mean of kind k's whole history: the bits
// stats.Mean(t.histValues(k)) gives (TailMean folds the same samples in the
// same order), without linearizing the ring.
func (t *tracker) histMean(k resource.Kind) float64 {
	return t.hist[k].TailMean(math.MaxInt)
}

// errValues linearizes kind k's matured-error window into the same buffer
// (the same ownership rules as histValues).
func (t *tracker) errValues(k resource.Kind) []float64 {
	t.linear = t.errs[k].AppendValues(t.linear[:0])
	return t.linear
}

// errStdDev returns σ̂ for kind k, the sample standard deviation of the
// matured prediction errors (Eq. 18).
func (t *tracker) errStdDev(k resource.Kind) float64 {
	return stats.SampleStdDev(t.errValues(k))
}

// errWithin returns the empirical P(0 ≤ δ < ε·cap_k) for kind k along with
// the sample count — the left side of Eq. 21 with a capacity-relative
// tolerance.
func (t *tracker) errWithin(k resource.Kind, epsilon float64) (float64, int) {
	vals := t.errValues(k)
	if len(vals) == 0 {
		return 0, 0
	}
	tol := epsilon * t.capacity[k]
	good := 0
	for _, d := range vals {
		if d >= 0 && d < tol {
			good++
		}
	}
	return float64(good) / float64(len(vals)), len(vals)
}

// clampToCapacity bounds a forecast to [0, capacity].
func (t *tracker) clampToCapacity(v resource.Vector) resource.Vector {
	return v.ClampTo(t.capacity)
}
