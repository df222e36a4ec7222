package stats

import "math"

// The allocating originals of the CloudScale signature path. Production
// runs PeriodScratch (periodscratch.go), which must match these bit for bit
// (TestPeriodScratchMatchesPackageFuncs); the decision-rule tests in
// stats_test.go and the FFT-vs-direct-DFT tests exercise them too.

// Periodogram returns the power spectrum |X(k)|² / n of the series for
// k = 1..n/2 (the DC component is excluded), computed with a direct DFT.
// A direct O(n²) transform is deliberate: prediction windows are tens of
// samples, so an FFT would add complexity without measurable benefit.
func Periodogram(series []float64) []float64 {
	n := len(series)
	if n < 4 {
		return nil
	}
	m := Mean(series)
	half := n / 2
	power := make([]float64, half)
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

// DominantPeriod finds the period (in samples) whose spectral peak carries
// at least minShare of the total spectral energy. It returns (period, true)
// when such a signature exists and (0, false) otherwise. Power-of-two
// series lengths ≥ 4 go through the O(n log n) PeriodogramFFT; other
// lengths fall back to the direct DFT.
func DominantPeriod(series []float64, minShare float64) (int, bool) {
	n := len(series)
	var power []float64
	if n >= 4 && n&(n-1) == 0 {
		power = PeriodogramFFT(series)
	} else {
		power = Periodogram(series)
	}
	return dominantFromPower(power, n, minShare)
}

// PeriodogramFFT computes the same power spectrum as Periodogram using the
// FFT. The series length must be a power of two ≥ 4; it returns nil
// otherwise.
func PeriodogramFFT(series []float64) []float64 {
	n := len(series)
	if n < 4 || n&(n-1) != 0 {
		return nil
	}
	m := Mean(series)
	re := make([]float64, n)
	im := make([]float64, n)
	for i, x := range series {
		re[i] = x - m
	}
	if !FFT(re, im) {
		return nil
	}
	half := n / 2
	power := make([]float64, half)
	for k := 1; k <= half; k++ {
		power[k-1] = (re[k]*re[k] + im[k]*im[k]) / float64(n)
	}
	return power
}

// Signature extracts the average per-phase pattern for the given period:
// element i is the mean of all samples at phase i. It returns nil when the
// period does not fit in the series at least twice.
func Signature(series []float64, period int) []float64 {
	if period < 1 || len(series) < 2*period {
		return nil
	}
	sig := make([]float64, period)
	count := make([]int, period)
	for t, x := range series {
		p := t % period
		sig[p] += x
		count[p]++
	}
	for i := range sig {
		sig[i] /= float64(count[i])
	}
	return sig
}

// SignaturePredict forecasts the next h values by replaying the signature
// starting at the phase that follows the series end.
func SignaturePredict(series []float64, period, h int) []float64 {
	sig := Signature(series, period)
	if sig == nil || h < 1 {
		return nil
	}
	out := make([]float64, h)
	for i := 0; i < h; i++ {
		out[i] = sig[(len(series)+i)%period]
	}
	return out
}
