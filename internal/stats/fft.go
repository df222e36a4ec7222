package stats

import "math"

// FFT support: PeriodScratch takes the O(n log n) transform for
// power-of-two series lengths and the direct DFT otherwise; both produce
// the same spectrum.

// FFT computes the in-place radix-2 Cooley–Tukey transform of the complex
// sequence given as separate real and imaginary slices. Both slices must
// have the same power-of-two length; it returns false otherwise.
func FFT(re, im []float64) bool {
	n := len(re)
	if n == 0 || n != len(im) || n&(n-1) != 0 {
		return false
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += length {
			curRe, curIm := 1.0, 0.0
			half := length / 2
			for k := 0; k < half; k++ {
				i, j := start+k, start+k+half
				tRe := re[j]*curRe - im[j]*curIm
				tIm := re[j]*curIm + im[j]*curRe
				re[j], im[j] = re[i]-tRe, im[i]-tIm
				re[i], im[i] = re[i]+tRe, im[i]+tIm
				curRe, curIm = curRe*wRe-curIm*wIm, curRe*wIm+curIm*wRe
			}
		}
	}
	return true
}
