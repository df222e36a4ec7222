package stats

import (
	"math"
	"math/rand"
	"testing"
)

// testSeriesSet builds a varied family of series of the given length:
// clean sines at several periods, noisy sines, pure noise, a linear trend
// and a constant — the regimes the signature detector must classify.
func testSeriesSet(n int, rng *rand.Rand) [][]float64 {
	var set [][]float64
	for _, period := range []int{2, 3, 4, 5, 8} {
		if period*2 > n {
			continue
		}
		clean := make([]float64, n)
		noisy := make([]float64, n)
		for i := range clean {
			v := math.Sin(2 * math.Pi * float64(i) / float64(period))
			clean[i] = 5 + 3*v
			noisy[i] = 5 + 3*v + 0.4*rng.NormFloat64()
		}
		set = append(set, clean, noisy)
	}
	noise := make([]float64, n)
	trend := make([]float64, n)
	konst := make([]float64, n)
	for i := range noise {
		noise[i] = rng.Float64() * 10
		trend[i] = float64(i) * 0.3
		konst[i] = 7
	}
	return append(set, noise, trend, konst)
}

// TestDominantPeriodFFTAndDirectAgree pins the satellite requirement: on
// power-of-two lengths the FFT-routed decision must match the direct-DFT
// decision — same (period, ok) — for every series in the family.
func TestDominantPeriodFFTAndDirectAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shares := []float64{0.2, 0.5, 0.8}
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256} {
		for si, series := range testSeriesSet(n, rng) {
			for _, share := range shares {
				direct := Periodogram(series)
				fft := PeriodogramFFT(series)
				if fft == nil {
					t.Fatalf("n=%d: PeriodogramFFT returned nil on power-of-two input", n)
				}
				pd, okd := dominantFromPower(direct, n, share)
				pf, okf := dominantFromPower(fft, n, share)
				if pd != pf || okd != okf {
					t.Fatalf("n=%d series=%d share=%v: direct (%d,%v) != fft (%d,%v)",
						n, si, share, pd, okd, pf, okf)
				}
				// The package entry point routes to the FFT here.
				pp, okp := DominantPeriod(series, share)
				if pp != pf || okp != okf {
					t.Fatalf("n=%d series=%d share=%v: DominantPeriod (%d,%v) != fft path (%d,%v)",
						n, si, share, pp, okp, pf, okf)
				}
			}
		}
	}
}

// TestDominantPeriodNonPow2UsesDirect checks the fallback: non-power-of-two
// lengths must produce exactly the direct-DFT decision.
func TestDominantPeriodNonPow2UsesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{5, 6, 7, 12, 30, 100} {
		for si, series := range testSeriesSet(n, rng) {
			pd, okd := dominantFromPower(Periodogram(series), n, 0.5)
			pp, okp := DominantPeriod(series, 0.5)
			if pd != pp || okd != okp {
				t.Fatalf("n=%d series=%d: DominantPeriod (%d,%v) != direct (%d,%v)",
					n, si, pp, okp, pd, okd)
			}
		}
	}
}

// TestPeriodScratchMatchesPackageFuncs pins the scratch-based CloudScale
// path to the allocating package functions bit for bit.
func TestPeriodScratchMatchesPackageFuncs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var ps PeriodScratch
	for _, n := range []int{3, 4, 6, 8, 16, 30, 32, 64, 100} {
		for si, series := range testSeriesSet(n, rng) {
			p1, ok1 := DominantPeriod(series, 0.5)
			p2, ok2 := ps.DominantPeriod(series, 0.5)
			if p1 != p2 || ok1 != ok2 {
				t.Fatalf("n=%d series=%d: scratch DominantPeriod (%d,%v) != package (%d,%v)",
					n, si, p2, ok2, p1, ok1)
			}
			for _, period := range []int{0, 1, 2, 3, 5, n/2 + 1} {
				for _, h := range []int{0, 1, 3, 6} {
					preds := SignaturePredict(series, period, h)
					got, ok := ps.SignatureMean(series, period, h)
					if (preds != nil) != ok {
						t.Fatalf("n=%d period=%d h=%d: SignatureMean ok=%v, SignaturePredict nil=%v",
							n, period, h, ok, preds == nil)
					}
					if ok {
						want := Mean(preds)
						if got != want {
							t.Fatalf("n=%d period=%d h=%d: SignatureMean %v != Mean(SignaturePredict) %v",
								n, period, h, got, want)
						}
					}
				}
			}
		}
	}
}

func TestPeriodScratchAndMarkovDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pow2 := make([]float64, 32)
	odd := make([]float64, 30)
	for i := range pow2 {
		pow2[i] = 5 + 3*math.Sin(2*math.Pi*float64(i)/4) + 0.2*rng.NormFloat64()
	}
	for i := range odd {
		odd[i] = 5 + 3*math.Sin(2*math.Pi*float64(i)/5) + 0.2*rng.NormFloat64()
	}
	var ps PeriodScratch
	ps.DominantPeriod(pow2, 0.5)
	ps.DominantPeriod(odd, 0.5)
	ps.SignatureMean(pow2, 4, 6)
	if n := testing.AllocsPerRun(100, func() {
		ps.DominantPeriod(pow2, 0.5)
		ps.DominantPeriod(odd, 0.5)
		ps.SignatureMean(pow2, 4, 6)
		ps.SignatureMean(odd, 5, 6)
	}); n != 0 {
		t.Fatalf("warm PeriodScratch allocates %v times per run, want 0", n)
	}

	mc := newChain(8, 0, 100)
	for i := 0; i < 64; i++ {
		mc.Observe(50 + 40*math.Sin(float64(i)/3))
	}
	mc.Predict(3)
	if n := testing.AllocsPerRun(100, func() {
		mc.Predict(3)
	}); n != 0 {
		t.Fatalf("warm MarkovChain.Predict allocates %v times per run, want 0", n)
	}
}
