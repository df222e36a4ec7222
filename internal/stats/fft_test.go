package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTRejectsBadInput(t *testing.T) {
	if FFT(nil, nil) {
		t.Error("empty input should fail")
	}
	if FFT(make([]float64, 3), make([]float64, 3)) {
		t.Error("non-power-of-two should fail")
	}
	if FFT(make([]float64, 4), make([]float64, 8)) {
		t.Error("mismatched lengths should fail")
	}
}

func TestFFTMatchesDirectDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 32
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// Direct DFT.
	wantRe := make([]float64, n)
	wantIm := make([]float64, n)
	for k := 0; k < n; k++ {
		for t2 := 0; t2 < n; t2++ {
			ang := -2 * math.Pi * float64(k) * float64(t2) / float64(n)
			wantRe[k] += x[t2] * math.Cos(ang)
			wantIm[k] += x[t2] * math.Sin(ang)
		}
	}
	re := append([]float64(nil), x...)
	im := make([]float64, n)
	if !FFT(re, im) {
		t.Fatal("FFT failed")
	}
	for k := 0; k < n; k++ {
		if math.Abs(re[k]-wantRe[k]) > 1e-9 || math.Abs(im[k]-wantIm[k]) > 1e-9 {
			t.Fatalf("bin %d: FFT (%v, %v), DFT (%v, %v)", k, re[k], im[k], wantRe[k], wantIm[k])
		}
	}
}

// Property: Parseval's theorem — energy in time equals energy in frequency
// divided by n.
func TestQuickFFTParseval(t *testing.T) {
	f := func(raw []float64) bool {
		n := 16
		x := make([]float64, n)
		for i := range x {
			if i < len(raw) {
				x[i] = math.Mod(raw[i], 100)
				if math.IsNaN(x[i]) {
					x[i] = 0
				}
			}
		}
		var timeEnergy float64
		for _, v := range x {
			timeEnergy += v * v
		}
		re := append([]float64(nil), x...)
		im := make([]float64, n)
		if !FFT(re, im) {
			return false
		}
		var freqEnergy float64
		for k := range re {
			freqEnergy += re[k]*re[k] + im[k]*im[k]
		}
		freqEnergy /= float64(n)
		return math.Abs(timeEnergy-freqEnergy) < 1e-6*(1+timeEnergy)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPeriodogramFFTMatchesDirect(t *testing.T) {
	n := 64
	series := make([]float64, n)
	for i := range series {
		series[i] = math.Sin(2*math.Pi*float64(i)/8) + 0.3*math.Cos(2*math.Pi*float64(i)/16)
	}
	direct := Periodogram(series)
	fast := PeriodogramFFT(series)
	if fast == nil {
		t.Fatal("PeriodogramFFT failed on power-of-two input")
	}
	if len(direct) != len(fast) {
		t.Fatalf("lengths differ: %d vs %d", len(direct), len(fast))
	}
	for k := range direct {
		if math.Abs(direct[k]-fast[k]) > 1e-9*(1+direct[k]) {
			t.Fatalf("bin %d: direct %v, fft %v", k, direct[k], fast[k])
		}
	}
	if PeriodogramFFT(series[:60]) != nil {
		t.Error("non-power-of-two should return nil")
	}
}

func BenchmarkFFT1024(b *testing.B) {
	n := 1024
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) / 7)
	}
	re := make([]float64, n)
	im := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(re, x)
		for j := range im {
			im[j] = 0
		}
		FFT(re, im)
	}
}

func BenchmarkPeriodogramFFT256VsDirect(b *testing.B) {
	n := 256
	series := make([]float64, n)
	for i := range series {
		series[i] = math.Sin(float64(i) / 5)
	}
	b.Run("fft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PeriodogramFFT(series)
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Periodogram(series)
		}
	})
}
