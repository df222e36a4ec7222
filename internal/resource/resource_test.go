package resource

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{CPU: "CPU", Memory: "MEM", Storage: "STO", Kind(7): "Kind(7)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestKindsOrder(t *testing.T) {
	ks := Kinds()
	if len(ks) != NumKinds {
		t.Fatalf("Kinds() has %d entries, want %d", len(ks), NumKinds)
	}
	if ks[0] != CPU || ks[1] != Memory || ks[2] != Storage {
		t.Errorf("Kinds() = %v, want [CPU MEM STO]", ks)
	}
}

func TestNewAndAt(t *testing.T) {
	v := New(1, 2, 3)
	if v.At(CPU) != 1 || v.At(Memory) != 2 || v.At(Storage) != 3 {
		t.Errorf("New/At mismatch: %v", v)
	}
}

func TestAddSubScale(t *testing.T) {
	a := New(1, 2, 3)
	b := New(4, 5, 6)
	if got := a.Add(b); got != New(5, 7, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != New(3, 3, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != New(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
}

func TestMulDiv(t *testing.T) {
	a := New(2, 4, 8)
	b := New(2, 2, 2)
	if got := a.Mul(b); got != New(4, 8, 16) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Div(b); got != New(1, 2, 4) {
		t.Errorf("Div = %v", got)
	}
	inf := New(1, 0, 0).Div(New(0, 1, 1))
	if !math.IsInf(inf[0], 1) {
		t.Errorf("1/0 should be +Inf, got %v", inf[0])
	}
}

func TestMinMax(t *testing.T) {
	a := New(1, 5, 3)
	b := New(2, 4, 3)
	if got := a.Min(b); got != New(1, 4, 3) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != New(2, 5, 3) {
		t.Errorf("Max = %v", got)
	}
}

func TestClampNonNegative(t *testing.T) {
	v := New(-1, 0, 2).ClampNonNegative()
	if v != New(0, 0, 2) {
		t.Errorf("ClampNonNegative = %v", v)
	}
}

func TestClampTo(t *testing.T) {
	v := New(-1, 5, 2).ClampTo(New(3, 3, 3))
	if v != New(0, 3, 2) {
		t.Errorf("ClampTo = %v", v)
	}
}

func TestFitsIn(t *testing.T) {
	cap := New(10, 10, 10)
	if !New(10, 9, 0).FitsIn(cap) {
		t.Error("exact fit should pass")
	}
	if New(10.001, 0, 0).FitsIn(cap) {
		t.Error("overflow should fail")
	}
	// Tiny epsilon tolerance for float accumulation.
	if !New(10+1e-12, 0, 0).FitsIn(cap) {
		t.Error("epsilon overshoot should pass")
	}
}

func TestIsZeroAndNonNegative(t *testing.T) {
	if !(Vector{}).IsZero() {
		t.Error("zero vector should be zero")
	}
	if New(0, 0, 1e-300).IsZero() {
		t.Error("tiny vector is not exactly zero")
	}
	if !New(0, 1, 2).NonNegative() {
		t.Error("non-negative vector misreported")
	}
	if New(0, -1, 2).NonNegative() {
		t.Error("negative vector misreported")
	}
	if New(math.NaN(), 0, 0).NonNegative() {
		t.Error("NaN vector misreported as non-negative")
	}
}

func TestSumWeighted(t *testing.T) {
	v := New(1, 2, 3)
	if v.Sum() != 6 {
		t.Errorf("Sum = %v", v.Sum())
	}
	w := DefaultWeights()
	want := 0.4*1 + 0.4*2 + 0.2*3
	if !almostEqual(v.Weighted(w), want) {
		t.Errorf("Weighted = %v, want %v", v.Weighted(w), want)
	}
}

func TestDefaultWeightsSumToOne(t *testing.T) {
	var sum float64
	for _, w := range DefaultWeights() {
		sum += w
	}
	if !almostEqual(sum, 1) {
		t.Errorf("weights sum to %v, want 1", sum)
	}
}

func TestDominant(t *testing.T) {
	ref := New(25, 2, 30) // paper Fig. 5 reference capacities
	// CPU-heavy job: 20/25 = 0.8 dominates.
	if d := New(20, 1, 5).Dominant(ref); d != CPU {
		t.Errorf("dominant = %v, want CPU", d)
	}
	// Storage-heavy job: 25/30 ≈ 0.83 dominates.
	if d := New(5, 1, 25).Dominant(ref); d != Storage {
		t.Errorf("dominant = %v, want STO", d)
	}
	// Raw comparison with an all-ones reference.
	if d := New(1, 9, 3).Dominant(New(1, 1, 1)); d != Memory {
		t.Errorf("dominant = %v, want MEM", d)
	}
}

func TestDominantZeroReference(t *testing.T) {
	// A zero reference component falls back to raw amount for that kind.
	d := New(0.5, 0, 0).Dominant(New(0, 1, 1))
	if d != CPU {
		t.Errorf("dominant with zero ref = %v, want CPU", d)
	}
}

// TestVolumePaperExample reproduces the worked example of Section III-B:
// C′ = <25, 2, 30>; the four VMs' unused vectors yield volumes
// 0.867, 1.233, 2.8, 1.183.
func TestVolumePaperExample(t *testing.T) {
	cprime := New(25, 2, 30)
	cases := []struct {
		unused Vector
		want   float64
	}{
		{New(5, 0, 20), 0.867},
		{New(10, 1, 10), 1.233},
		{New(20, 2, 30), 2.8},
		{New(10, 1, 8.5), 1.183},
	}
	for i, c := range cases {
		got := c.unused.Volume(cprime)
		if math.Abs(got-c.want) > 5e-4 {
			t.Errorf("VM%d volume = %.4f, want %.3f", i+1, got, c.want)
		}
	}
}

func TestMaxAcrossPaperExample(t *testing.T) {
	vs := []Vector{New(25, 2, 20), New(20, 1, 30), New(10, 2, 25)}
	if got := MaxAcross(vs); got != New(25, 2, 30) {
		t.Errorf("MaxAcross = %v, want <25,2,30>", got)
	}
	if got := MaxAcross(nil); !got.IsZero() {
		t.Errorf("MaxAcross(nil) = %v, want zero", got)
	}
}

func TestSumAcross(t *testing.T) {
	vs := []Vector{New(1, 2, 3), New(4, 5, 6)}
	if got := SumAcross(vs); got != New(5, 7, 9) {
		t.Errorf("SumAcross = %v", got)
	}
}

func TestWith(t *testing.T) {
	v := New(1, 2, 3).With(Memory, 9)
	if v != New(1, 9, 3) {
		t.Errorf("With = %v", v)
	}
}

func TestString(t *testing.T) {
	if got := New(25, 2, 30).String(); got != "<25, 2, 30>" {
		t.Errorf("String = %q", got)
	}
}

// Property: Add is commutative and Sub is its inverse.
func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(a, b Vector) bool {
		if a.Add(b) != b.Add(a) {
			return false
		}
		sum := a.Add(b)
		rt := sum.Sub(b)
		for i := range rt {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) ||
				math.IsNaN(sum[i]) || math.IsInf(sum[i], 0) {
				continue // IEEE overflow edge cases excluded
			}
			if math.Abs(rt[i]-a[i]) > 1e-6*(1+math.Abs(a[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ClampNonNegative output is always non-negative and idempotent.
func TestQuickClampNonNegative(t *testing.T) {
	f := func(v Vector) bool {
		c := v.ClampNonNegative()
		return c.NonNegative() && c.ClampNonNegative() == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Volume is monotone in each component for positive capacity.
func TestQuickVolumeMonotone(t *testing.T) {
	ref := New(25, 2, 30)
	f := func(v Vector, delta float64) bool {
		v = v.ClampNonNegative()
		d := math.Abs(delta)
		if math.IsInf(d, 0) || math.IsNaN(d) {
			return true
		}
		grown := v.Add(New(d, d, d))
		return grown.Volume(ref) >= v.Volume(ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FitsIn is reflexive and monotone under shrinking.
func TestQuickFitsIn(t *testing.T) {
	f := func(v Vector) bool {
		v = v.ClampNonNegative()
		for i := range v {
			if math.IsInf(v[i], 0) || math.IsNaN(v[i]) {
				return true
			}
		}
		if !v.FitsIn(v) {
			return false
		}
		half := v.Scale(0.5)
		return half.FitsIn(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkVectorAdd(b *testing.B) {
	x := New(1, 2, 3)
	y := New(4, 5, 6)
	for i := 0; i < b.N; i++ {
		vectorSink = x.Add(y)
	}
}

func BenchmarkVolume(b *testing.B) {
	v := New(10, 1, 10)
	ref := New(25, 2, 30)
	for i := 0; i < b.N; i++ {
		floatSink = v.Volume(ref)
	}
}

// BenchmarkMaxAcross folds a 30-slot series, the length of a short job's
// usage series (job.PeakDemand).
func BenchmarkMaxAcross(b *testing.B) {
	vs := make([]Vector, 30)
	for i := range vs {
		f := float64(i)
		vs[i] = New(math.Mod(f*0.37, 4), math.Mod(f*1.3, 16), math.Mod(f*7.1, 180))
	}
	for i := 0; i < b.N; i++ {
		vectorSink = MaxAcross(vs)
	}
}

// vectorSink and floatSink keep a benchmark's result live, so the compiler
// cannot drop the work that produced it.
var (
	vectorSink Vector
	floatSink  float64
)
