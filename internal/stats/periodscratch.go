package stats

import "math"

// PeriodScratch holds the reusable buffers for the CloudScale signature
// path: spectrum work areas for period detection and per-phase
// accumulators for signature replay. A zero PeriodScratch is ready to use;
// buffers grow to the largest series seen and are reused, after which the
// methods are allocation-free. Not safe for concurrent use.
type PeriodScratch struct {
	re, im, power []float64
	sig           []float64
	cnt           []int
}

func (ps *PeriodScratch) growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// DominantPeriod finds the period (in samples) whose spectral peak carries
// at least minShare of the total spectral energy. It returns (period, true)
// when such a signature exists and (0, false) otherwise. The spectrum is
// the FFT's for power-of-two lengths ≥ 4 and the direct DFT's otherwise.
func (ps *PeriodScratch) DominantPeriod(series []float64, minShare float64) (int, bool) {
	return dominantFromPower(ps.periodogram(series), len(series), minShare)
}

// periodogram computes the power spectrum |X(k)|² / n of the series for
// k = 1..n/2 (the DC component is excluded) into ps.power.
func (ps *PeriodScratch) periodogram(series []float64) []float64 {
	n := len(series)
	if n < 4 {
		return nil
	}
	if n&(n-1) == 0 {
		return ps.periodogramFFT(series)
	}
	m := Mean(series)
	half := n / 2
	ps.power = ps.growF(ps.power, half)
	power := ps.power
	for k := 1; k <= half; k++ {
		var re, im float64
		for t, x := range series {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			c := x - m
			re += c * math.Cos(angle)
			im += c * math.Sin(angle)
		}
		power[k-1] = (re*re + im*im) / float64(n)
	}
	return power
}

func (ps *PeriodScratch) periodogramFFT(series []float64) []float64 {
	n := len(series)
	m := Mean(series)
	ps.re = ps.growF(ps.re, n)
	ps.im = ps.growF(ps.im, n)
	re, im := ps.re, ps.im
	for i, x := range series {
		re[i] = x - m
		im[i] = 0
	}
	if !FFT(re, im) {
		return nil
	}
	half := n / 2
	ps.power = ps.growF(ps.power, half)
	power := ps.power
	for k := 1; k <= half; k++ {
		power[k-1] = (re[k]*re[k] + im[k]*im[k]) / float64(n)
	}
	return power
}

// SignatureMean is the CloudScale window forecast: the mean of the next h
// values when the per-phase signature (element i is the mean of all samples
// at phase i) is replayed from the phase that follows the series end. The
// signature accumulates into scratch, so nothing allocates. The boolean is
// false when the period does not fit in the series at least twice or
// h < 1.
func (ps *PeriodScratch) SignatureMean(series []float64, period, h int) (float64, bool) {
	if period < 1 || len(series) < 2*period || h < 1 {
		return 0, false
	}
	ps.sig = ps.growF(ps.sig, period)
	if cap(ps.cnt) < period {
		ps.cnt = make([]int, period)
	}
	sig := ps.sig
	cnt := ps.cnt[:period]
	for i := range sig {
		sig[i] = 0
		cnt[i] = 0
	}
	for t, x := range series {
		p := t % period
		sig[p] += x
		cnt[p]++
	}
	for i := range sig {
		sig[i] /= float64(cnt[i])
	}
	var sum float64
	for i := 0; i < h; i++ {
		sum += sig[(len(series)+i)%period]
	}
	return sum / float64(h), true
}
