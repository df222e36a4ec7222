package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
}

func TestSampleStdDev(t *testing.T) {
	if SampleStdDev([]float64{5}) != 0 {
		t.Error("SampleStdDev of one sample should be 0")
	}
	xs := []float64{1, 2, 3, 4, 5}
	want := math.Sqrt(2.5)
	if got := SampleStdDev(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("SampleStdDev = %v, want %v", got, want)
	}
}

func TestMinMax(t *testing.T) {
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Error("MinMax(nil) should return ErrEmpty")
	}
	lo, hi, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil || lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v, %v, %v)", lo, hi, err)
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.95, 1.644854},
		{0.025, -1.959964},
		{0.84134, 0.99998}, // ≈ Φ(1)
	}
	for _, c := range cases {
		got := NormalQuantile(c.p)
		if math.Abs(got-c.want) > 1e-3 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile boundaries should be infinite")
	}
}

func TestZForConfidence(t *testing.T) {
	// η = 0.90 → θ = 0.10 → z_{0.05} = 1.645 (two-sided).
	if got := ZForConfidence(0.90); math.Abs(got-1.6449) > 1e-3 {
		t.Errorf("ZForConfidence(0.90) = %v", got)
	}
	// η = 0.95 → 1.96.
	if got := ZForConfidence(0.95); math.Abs(got-1.95996) > 1e-3 {
		t.Errorf("ZForConfidence(0.95) = %v", got)
	}
	// Clamping: silly inputs do not panic or produce NaN.
	if math.IsNaN(ZForConfidence(-2)) || !math.IsInf(ZForConfidence(2), 1) {
		t.Error("ZForConfidence clamping misbehaves")
	}
}

// Property: NormalQuantile is monotone increasing and antisymmetric about
// p = 0.5.
func TestQuickNormalQuantile(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1))
		if p <= 0.001 || p >= 0.999 {
			return true
		}
		z := NormalQuantile(p)
		if NormalQuantile(p+0.0005) < z {
			return false
		}
		return math.Abs(NormalQuantile(1-p)+z) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Error("fresh EWMA should read 0")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Errorf("first observation should set value, got %v", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Errorf("EWMA = %v, want 15", e.Value())
	}
	// Clamping of silly alphas.
	if NewEWMA(-1).alpha <= 0 || NewEWMA(9).alpha > 1 {
		t.Error("alpha clamping failed")
	}
}

func TestWindowBasics(t *testing.T) {
	w := newWindow(3)
	if got := w.AppendValues(nil); len(got) != 0 {
		t.Fatalf("fresh window holds %v", got)
	}
	if w.TailMean(2) != 0 {
		t.Error("empty window should have a zero tail mean")
	}
	w.Push(1)
	w.Push(2)
	w.Push(3)
	w.Push(4) // evicts 1
	got := w.AppendValues(nil)
	want := []float64{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("AppendValues = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("AppendValues = %v, want %v", got, want)
			break
		}
	}
	if w.TailMean(1) != 4 {
		t.Errorf("TailMean(1) = %v, want the newest sample", w.TailMean(1))
	}
	if w.TailMean(9) != 3 {
		t.Errorf("TailMean(9) = %v, want the mean of all three", w.TailMean(9))
	}
}

func TestWindowMinCapacity(t *testing.T) {
	w := newWindow(0)
	w.Push(1)
	w.Push(2)
	if got := w.AppendValues(nil); len(got) != 1 || got[0] != 2 {
		t.Errorf("capacity raised to 1 should keep only the newest sample, got %v", got)
	}
}

// newWindow returns a window of one.
func newWindow(capacity int) *Window { return &NewWindows(1, capacity)[0] }

// newChain returns a Markov chain of one over [lo, hi].
func newChain(bins int, lo, hi float64) *MarkovChain {
	return &NewMarkovChains(bins, lo, []float64{hi})[0]
}

// TestFleetsShareNothing pins the fleet constructors' carving: a member fed
// alone behaves exactly as a fleet of one, and its neighbours in the slab
// see none of it.
func TestFleetsShareNothing(t *testing.T) {
	ws := NewWindows(3, 2)
	for x := 1.0; x <= 5; x++ {
		ws[1].Push(x)
	}
	if got := ws[1].AppendValues(nil); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("middle window holds %v, want [4 5]", got)
	}
	if len(ws[0].AppendValues(nil)) != 0 || len(ws[2].AppendValues(nil)) != 0 {
		t.Error("a push leaked into a neighbouring window")
	}

	chains := NewMarkovChains(4, 0, []float64{8, 8, 0})
	solo := newChain(4, 0, 8)
	for _, x := range []float64{1, 7, 3, 3, 6, 1, 7} {
		chains[1].Observe(x)
		solo.Observe(x)
	}
	if a, b := chains[1].Predict(2), solo.Predict(2); a != b {
		t.Errorf("fleet chain predicts %v, a chain of one %v", a, b)
	}
	if got := chains[0].Predict(2); got != 4 {
		t.Errorf("untouched neighbour predicts %v, want the range midpoint 4", got)
	}
	if chains[2].hi != 1 {
		t.Errorf("degenerate range widened to [0, %v], want [0, 1]", chains[2].hi)
	}

	holts := NewHoltETSFleet(2, 0.5, 0.1)
	holts[0].Observe(1)
	holts[0].Observe(2)
	if !holts[0].Ready() || holts[1].Ready() {
		t.Error("an observation leaked across Holt forecasters")
	}
}

// Property: the window always retains exactly the last min(n, cap) pushes,
// in order.
func TestQuickWindowRetention(t *testing.T) {
	f := func(vals []float64, rawCap uint8) bool {
		capacity := int(rawCap%16) + 1
		w := newWindow(capacity)
		for _, v := range vals {
			w.Push(v)
		}
		n := len(vals)
		keep := n
		if keep > capacity {
			keep = capacity
		}
		got := w.AppendValues(nil)
		if len(got) != keep {
			return false
		}
		for i := 0; i < keep; i++ {
			if got[i] != vals[n-keep+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHoltETSTrendTracking(t *testing.T) {
	h := NewHoltETS(0.8, 0.8)
	// A perfect linear ramp should be forecast almost exactly.
	for i := 0; i < 30; i++ {
		h.Observe(float64(2 * i))
	}
	if !h.Ready() {
		t.Fatal("Holt should be ready")
	}
	got := h.Forecast(1)
	want := 60.0 // next ramp value
	if math.Abs(got-want) > 1.0 {
		t.Errorf("Holt forecast = %v, want ≈ %v", got, want)
	}
	// Multi-step forecast extrapolates the trend.
	if h.Forecast(5) <= h.Forecast(1) {
		t.Error("multi-step forecast of a rising ramp should exceed one-step")
	}
}

func TestHoltETSConstantSeries(t *testing.T) {
	h := NewHoltETS(0.5, 0.1)
	for i := 0; i < 20; i++ {
		h.Observe(7)
	}
	if got := h.Forecast(3); math.Abs(got-7) > 1e-9 {
		t.Errorf("constant series forecast = %v, want 7", got)
	}
}

func TestPeriodogramNil(t *testing.T) {
	if Periodogram([]float64{1, 2, 3}) != nil {
		t.Error("too-short series should yield nil periodogram")
	}
}

func TestDominantPeriodSine(t *testing.T) {
	// Strong period-8 sine: the detector must find it.
	n := 64
	series := make([]float64, n)
	for i := range series {
		series[i] = math.Sin(2 * math.Pi * float64(i) / 8)
	}
	period, ok := DominantPeriod(series, 0.5)
	if !ok {
		t.Fatal("expected a dominant period")
	}
	if period != 8 {
		t.Errorf("period = %d, want 8", period)
	}
}

func TestDominantPeriodNoise(t *testing.T) {
	// A pattern-free ramp of pseudo-random values: no single frequency
	// should carry half the energy.
	series := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5}
	if _, ok := DominantPeriod(series, 0.5); ok {
		t.Error("noise should not have a dominant period at 50% share")
	}
}

func TestDominantPeriodConstant(t *testing.T) {
	series := make([]float64, 16)
	if _, ok := DominantPeriod(series, 0.3); ok {
		t.Error("constant series has no period")
	}
}

func TestSignatureAndPredict(t *testing.T) {
	// Periodic series 1,2,3,4 repeating.
	var series []float64
	for i := 0; i < 5; i++ {
		series = append(series, 1, 2, 3, 4)
	}
	sig := Signature(series, 4)
	if sig == nil {
		t.Fatal("signature should exist")
	}
	for i, want := range []float64{1, 2, 3, 4} {
		if math.Abs(sig[i]-want) > 1e-12 {
			t.Errorf("sig[%d] = %v, want %v", i, sig[i], want)
		}
	}
	pred := SignaturePredict(series, 4, 6)
	want := []float64{1, 2, 3, 4, 1, 2}
	for i := range want {
		if math.Abs(pred[i]-want[i]) > 1e-12 {
			t.Errorf("pred = %v, want %v", pred, want)
			break
		}
	}
	if Signature(series[:6], 4) != nil {
		t.Error("signature needs at least two full periods")
	}
	if SignaturePredict(series, 4, 0) != nil {
		t.Error("zero-horizon predict should be nil")
	}
}

func TestMarkovChainBinning(t *testing.T) {
	mc := newChain(4, 0, 8)
	cases := []struct {
		x    float64
		want int
	}{{-1, 0}, {0, 0}, {1.9, 0}, {2, 1}, {7.9, 3}, {8, 3}, {100, 3}}
	for _, c := range cases {
		if got := mc.Bin(c.x); got != c.want {
			t.Errorf("Bin(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestMarkovChainDegenerateRange(t *testing.T) {
	mc := newChain(1, 5, 5)
	if mc.bins != 2 {
		t.Errorf("bins = %d, want raised to 2", mc.bins)
	}
	if mc.hi <= mc.lo {
		t.Error("degenerate range should be widened")
	}
}

func TestMarkovChainPredictAlternating(t *testing.T) {
	// Deterministic alternation between low (≈1) and high (≈9): after a
	// low sample the 1-step prediction must be high.
	mc := newChain(2, 0, 10)
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			mc.Observe(1)
		} else {
			mc.Observe(9)
		}
	}
	mc.Observe(1) // end on low
	got := mc.Predict(1)
	if got < 5 {
		t.Errorf("Predict(1) after low = %v, want high (> 5)", got)
	}
	// Two steps ahead should be low again.
	if got2 := mc.Predict(2); got2 > 5 {
		t.Errorf("Predict(2) after low = %v, want low (< 5)", got2)
	}
}

func TestMarkovChainPredictBeforeData(t *testing.T) {
	mc := newChain(4, 0, 10)
	if got := mc.Predict(1); got != 5 {
		t.Errorf("prior prediction = %v, want midpoint 5", got)
	}
}

func TestMarkovChainTransitionRowNormalized(t *testing.T) {
	mc := newChain(3, 0, 3)
	for _, x := range []float64{0.5, 1.5, 2.5, 0.5, 1.5} {
		mc.Observe(x)
	}
	row := make([]float64, 3)
	for b := 0; b < 3; b++ {
		mc.transitionRowInto(row, b)
		var sum float64
		for _, p := range row {
			if p <= 0 {
				t.Errorf("row %d has non-positive prob %v", b, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d sums to %v", b, sum)
		}
	}
}

func BenchmarkNormalQuantile(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = NormalQuantile(0.975)
	}
	_ = sink
}

func BenchmarkPeriodogram64(b *testing.B) {
	series := make([]float64, 64)
	for i := range series {
		series[i] = math.Sin(float64(i) / 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Periodogram(series)
	}
}

func BenchmarkMarkovPredict(b *testing.B) {
	mc := newChain(10, 0, 1)
	for i := 0; i < 200; i++ {
		mc.Observe(math.Mod(float64(i)*0.37, 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Predict(3)
	}
}

func TestDominantPeriodRejectsTrend(t *testing.T) {
	// A pure linear ramp concentrates spectral energy at frequency 1 (the
	// trend); the detector must NOT report it as a usable signature.
	series := make([]float64, 32)
	for i := range series {
		series[i] = float64(i)
	}
	if p, ok := DominantPeriod(series, 0.3); ok {
		t.Errorf("trend misdetected as period %d", p)
	}
}
