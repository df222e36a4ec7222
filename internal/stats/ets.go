package stats

// Exponential smoothing (ETS) forecasters. The RCCR baseline of the paper
// "used a time series forecasting technique, i.e., Exponential Smoothing
// (ETS), to predict the amount of unused resource of VMs" (Section IV).
// RCCR uses Holt's linear-trend method so it can track drifting baselines.

// HoltETS is Holt's linear-trend double exponential smoothing.
type HoltETS struct {
	alpha, beta  float64
	level, trend float64
	seen         int
	prev         float64
}

// NewHoltETS returns a Holt forecaster: a fleet of one.
func NewHoltETS(alpha, beta float64) *HoltETS {
	return &NewHoltETSFleet(1, alpha, beta)[0]
}

// NewHoltETSFleet returns n Holt forecasters with the same parameters in one
// slab. Parameters are clamped to (0, 1].
func NewHoltETSFleet(n int, alpha, beta float64) []HoltETS {
	if alpha <= 0 {
		alpha = 0.5
	}
	if alpha > 1 {
		alpha = 1
	}
	if beta <= 0 {
		beta = 0.1
	}
	if beta > 1 {
		beta = 1
	}
	fleet := make([]HoltETS, n)
	for i := range fleet {
		fleet[i] = HoltETS{alpha: alpha, beta: beta}
	}
	return fleet
}

// Observe folds one sample into level and trend. The first two samples
// initialize level and trend directly.
func (h *HoltETS) Observe(x float64) {
	switch h.seen {
	case 0:
		h.level = x
		h.prev = x
		h.seen = 1
		return
	case 1:
		h.trend = x - h.prev
		h.level = x
		h.seen = 2
		return
	}
	prevLevel := h.level
	h.level = h.alpha*x + (1-h.alpha)*(h.level+h.trend)
	h.trend = h.beta*(h.level-prevLevel) + (1-h.beta)*h.trend
	h.seen++
}

// Forecast returns the k-step-ahead forecast level + k·trend. k values
// below 1 are treated as 1.
func (h *HoltETS) Forecast(k int) float64 {
	if k < 1 {
		k = 1
	}
	return h.level + float64(k)*h.trend
}

// Ready reports whether the forecaster has seen at least two samples (so
// the trend is initialized).
func (h *HoltETS) Ready() bool { return h.seen >= 2 }
