// Package stats is the statistics substrate for the CORP reproduction.
//
// It provides the numerical building blocks the paper's predictors rely on:
// descriptive statistics, standard-normal quantiles for confidence intervals
// (paper Eqs. 18–19), exponential-smoothing time-series forecasting (the ETS
// predictor used by the RCCR baseline), a periodogram/signature detector and
// a discrete-time Markov chain (the PRESS-style predictor used by the
// CloudScale baseline), and windowed online estimators.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by estimators that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SampleStdDev returns the unbiased (n−1) sample standard deviation, the σ̂
// estimator the paper uses for prediction errors (Eq. 18). It returns 0 for
// fewer than two samples.
func SampleStdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// MinMax returns the minimum and maximum of xs. It returns ErrEmpty for an
// empty slice.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// NormalQuantile returns the p-quantile of the standard normal distribution
// (the value z with Φ(z) = p). It uses the exact inverse error function.
// p must be in (0, 1); out-of-range values return ∓Inf.
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// ZForConfidence returns z_{θ/2} of paper Eq. 18: for confidence level η,
// significance θ = 1−η, the two-sided critical value is the (1 − θ/2)
// standard-normal quantile. E.g. η = 0.90 → z ≈ 1.645.
func ZForConfidence(eta float64) float64 {
	if eta < 0 {
		eta = 0
	}
	if eta > 1 {
		eta = 1
	}
	theta := 1 - eta
	return NormalQuantile(1 - theta/2)
}

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha in (0, 1]. The zero value is not ready; use NewEWMA.
type EWMA struct {
	alpha float64
	value float64
	ready bool
}

// NewEWMA returns an EWMA with the given smoothing factor. Alpha is clamped
// to (0, 1]. It returns a value so a predictor can hold its averages inline.
func NewEWMA(alpha float64) EWMA {
	if alpha <= 0 {
		alpha = 0.1
	}
	if alpha > 1 {
		alpha = 1
	}
	return EWMA{alpha: alpha}
}

// Observe folds a new sample into the average and returns the updated value.
func (e *EWMA) Observe(x float64) float64 {
	if !e.ready {
		e.value = x
		e.ready = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Window is a fixed-capacity sliding window of float64 samples. It is the
// backing store for the paper's per-window prediction-error statistics
// (Eq. 20) and for HMM observation histories.
type Window struct {
	buf  []float64
	head int
	n    int
}

// NewWindows returns n windows, each holding at most capacity samples, whose
// rings are carved from one shared slab: a fleet of windows costs two
// allocations, not two per window. Capacity must be ≥ 1; smaller values are
// raised to 1.
func NewWindows(n, capacity int) []Window {
	if capacity < 1 {
		capacity = 1
	}
	slab := make([]float64, n*capacity)
	ws := make([]Window, n)
	for i := range ws {
		ws[i].buf = slab[i*capacity : (i+1)*capacity : (i+1)*capacity]
	}
	return ws
}

// Push appends x, evicting the oldest sample when full. The ring indices
// are wrapped with compares instead of %: head and n are both < len(buf)+1,
// so one conditional subtract reaches the same index without the integer
// division (Push runs once per predictor kind per VM per slot).
func (w *Window) Push(x float64) {
	if w.n < len(w.buf) {
		i := w.head + w.n
		if i >= len(w.buf) {
			i -= len(w.buf)
		}
		w.buf[i] = x
		w.n++
		return
	}
	w.buf[w.head] = x
	if w.head++; w.head == len(w.buf) {
		w.head = 0
	}
}

// AppendValues appends the samples oldest-first to dst and returns the
// extended slice. Callers on hot paths pass a reused buffer (dst[:0]) to
// avoid a per-call allocation.
func (w *Window) AppendValues(dst []float64) []float64 {
	if w.n == 0 {
		return dst
	}
	// The ring is at most two contiguous runs of buf.
	head := w.buf[w.head:]
	if len(head) >= w.n {
		return append(dst, head[:w.n]...)
	}
	dst = append(dst, head...)
	return append(dst, w.buf[:w.n-len(head)]...)
}

// TailMean returns the mean of the newest n samples (all of them when
// fewer are stored; 0 when empty). The sum visits the samples oldest-first,
// exactly the order Mean(AppendValues(...)[len-n:]) would fold them in, so
// the result is bit-identical to linearizing the ring first — without
// copying it.
func (w *Window) TailMean(n int) float64 {
	if n > w.n {
		n = w.n
	}
	if n <= 0 {
		return 0
	}
	i := w.head + w.n - n
	if i >= len(w.buf) {
		i -= len(w.buf)
	}
	var s float64
	for k := 0; k < n; k++ {
		s += w.buf[i]
		if i++; i == len(w.buf) {
			i = 0
		}
	}
	return s / float64(n)
}
