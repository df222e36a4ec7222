package hmm

import (
	"math"
	"testing"
)

// Allocation-regression tests: once the scratch is warm, the HMM kernels
// and the symbolizer hot path must not touch the heap. These pin the
// tentpole property of the flattening; the perf suite gates ns/op.

// allocSeries mirrors the predictor's history shape: 120 slots of a noisy
// sine, symbolized over window 6.
func allocSeries() []float64 {
	vals := make([]float64, 120)
	for i := range vals {
		vals[i] = 50 + 18*math.Sin(float64(i)/5) + float64(i%7)
	}
	return vals
}

func allocObs(t testing.TB, vals []float64) []Symbol {
	means := WindowMeans(vals, 6)
	sym, err := NewSymbolizer(means)
	if err != nil {
		t.Fatalf("NewSymbolizer: %v", err)
	}
	obs := sym.ObserveLevels(vals, 6)
	if len(obs) < 5 {
		t.Fatalf("short obs: %d", len(obs))
	}
	return obs
}

// The forward and backward passes run inside BaumWelchInto; the scratch is
// packed and grown by the warm-up call, after which neither may allocate.
func TestForwardDoesNotAllocate(t *testing.T) {
	model := NewPaperModel(1)
	obs := allocObs(t, allocSeries())
	s := NewScratch()
	s.pack(model)
	model.forwardInto(s, obs)
	if n := testing.AllocsPerRun(100, func() { model.forwardInto(s, obs) }); n != 0 {
		t.Fatalf("forwardInto allocates %v times per run, want 0", n)
	}
}

func TestBackwardAndGammaDoNotAllocate(t *testing.T) {
	model := NewPaperModel(1)
	obs := allocObs(t, allocSeries())
	s := NewScratch()
	s.pack(model)
	model.forwardInto(s, obs)
	scale := s.scale[:len(obs)]
	model.backwardInto(s, obs, scale)
	if n := testing.AllocsPerRun(100, func() { model.backwardInto(s, obs, scale) }); n != 0 {
		t.Fatalf("backwardInto allocates %v times per run, want 0", n)
	}
}

func TestViterbiDoesNotAllocate(t *testing.T) {
	model := NewPaperModel(1)
	obs := allocObs(t, allocSeries())
	s := NewScratch()
	if _, _, err := model.ViterbiInto(s, obs); err != nil {
		t.Fatalf("warm-up ViterbiInto: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := model.ViterbiInto(s, obs); err != nil {
			t.Fatalf("ViterbiInto: %v", err)
		}
	}); n != 0 {
		t.Fatalf("ViterbiInto allocates %v times per run, want 0", n)
	}
}

// TestViterbiGrowingHistoryAmortizes pins the scratch's geometric growth:
// with the observation sequence one symbol longer on every call (a VM's HMM
// history filling up), the trellis, backpointers and path reallocate only
// when the length passes a capacity doubling, so over 200 calls the
// per-call average rounds down to zero. Growing each buffer to exactly T
// cost three allocations on every call.
func TestViterbiGrowingHistoryAmortizes(t *testing.T) {
	model := NewPaperModel(1)
	base := allocObs(t, allocSeries())
	obs := make([]Symbol, 256)
	for i := range obs {
		obs[i] = base[i%len(base)]
	}
	s := NewScratch()
	T := 5
	if n := testing.AllocsPerRun(200, func() {
		T++
		if _, _, err := model.ViterbiInto(s, obs[:T]); err != nil {
			t.Fatalf("ViterbiInto at T=%d: %v", T, err)
		}
	}); n != 0 {
		t.Fatalf("ViterbiInto over a growing history allocates %v times per call, want 0", n)
	}
}

func TestBaumWelchDoesNotAllocate(t *testing.T) {
	model := NewPaperModel(1)
	obs := allocObs(t, allocSeries())
	s := NewScratch()
	if _, _, err := model.BaumWelchInto(s, obs, 5, 1e-5); err != nil {
		t.Fatalf("warm-up BaumWelchInto: %v", err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, _, err := model.BaumWelchInto(s, obs, 5, 1e-5); err != nil {
			t.Fatalf("BaumWelchInto: %v", err)
		}
	}); n != 0 {
		t.Fatalf("BaumWelchInto allocates %v times per run, want 0", n)
	}
}

func TestPredictNextSymbolDoesNotAllocate(t *testing.T) {
	model := NewPaperModel(1)
	s := NewScratch()
	if _, _, err := model.PredictNextSymbolInto(s, NormalProvisioning); err != nil {
		t.Fatalf("warm-up PredictNextSymbolInto: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := model.PredictNextSymbolInto(s, NormalProvisioning); err != nil {
			t.Fatalf("PredictNextSymbolInto: %v", err)
		}
	}); n != 0 {
		t.Fatalf("PredictNextSymbolInto allocates %v times per run, want 0", n)
	}
}

func TestSymbolizerHotPathDoesNotAllocate(t *testing.T) {
	vals := allocSeries()
	means := make([]float64, 0, 32)
	obs := make([]Symbol, 0, 32)
	if n := testing.AllocsPerRun(100, func() {
		means = AppendWindowMeans(means[:0], vals, 6)
		sym, err := MakeSymbolizer(means)
		if err != nil {
			t.Fatalf("MakeSymbolizer: %v", err)
		}
		obs = sym.AppendObserveLevels(obs[:0], vals, 6)
		if len(obs) != 20 {
			t.Fatalf("obs length %d, want 20", len(obs))
		}
	}); n != 0 {
		t.Fatalf("symbolizer path allocates %v times per run, want 0", n)
	}
}
