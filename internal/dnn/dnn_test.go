package dnn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{LayerSizes: []int{3}}); err == nil {
		t.Error("single layer should fail")
	}
	if _, err := New(Config{LayerSizes: []int{3, 0, 1}}); err == nil {
		t.Error("zero-size layer should fail")
	}
	n, err := New(Config{LayerSizes: []int{4, 50, 50, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n.sizes, []int{4, 50, 50, 1}) {
		t.Errorf("sizes = %v, want the Table II topology", n.sizes)
	}
}

func TestForwardShapeAndRange(t *testing.T) {
	n, err := New(Config{LayerSizes: []int{3, 5, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := n.Forward([]float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("output size %d", len(out))
	}
	for _, g := range out {
		if g <= 0 || g >= 1 {
			t.Errorf("sigmoid activation %v outside (0,1)", g)
		}
	}
	if _, err := n.Forward([]float64{1}); err == nil {
		t.Error("wrong input size should fail")
	}
}

func TestForwardDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) []float64 {
		n, err := New(Config{LayerSizes: []int{2, 4, 1}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out, err := n.Forward([]float64{0.3, 0.7})
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), out...)
	}
	if !reflect.DeepEqual(mk(5), mk(5)) {
		t.Error("same seed should give identical outputs")
	}
	if reflect.DeepEqual(mk(5), mk(6)) {
		t.Error("different seeds should give different weights")
	}
}

func TestTrainSampleReducesLoss(t *testing.T) {
	n, err := New(Config{LayerSizes: []int{2, 8, 1}, LearningRate: 1.0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.2, 0.9}
	target := []float64{0.8}
	first, err := n.TrainSample(in, target)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 200; i++ {
		last, err = n.TrainSample(in, target)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Errorf("loss did not decrease: first %v, last %v", first, last)
	}
	out, _ := n.Forward(in)
	if math.Abs(out[0]-0.8) > 0.05 {
		t.Errorf("converged output %v, want ≈ 0.8", out[0])
	}
}

func TestTrainSampleWrongTargetSize(t *testing.T) {
	n, _ := New(Config{LayerSizes: []int{2, 3, 1}})
	if _, err := n.TrainSample([]float64{0, 0}, []float64{0, 0}); err == nil {
		t.Error("wrong target size should fail")
	}
}

// TestLearnsXOR: XOR is the classic non-linearly-separable task; a network
// that learns it demonstrably uses its hidden layer.
func TestLearnsXOR(t *testing.T) {
	n, err := New(Config{LayerSizes: []int{2, 8, 8, 1}, LearningRate: 2.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	data := []Sample{
		{Input: []float64{0, 0}, Target: []float64{0}},
		{Input: []float64{0, 1}, Target: []float64{1}},
		{Input: []float64{1, 0}, Target: []float64{1}},
		{Input: []float64{1, 1}, Target: []float64{0}},
	}
	rng := rand.New(rand.NewSource(1))
	for epoch := 0; epoch < 4000; epoch++ {
		i := rng.Intn(len(data))
		if _, err := n.TrainSample(data[i].Input, data[i].Target); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range data {
		out, _ := n.Forward(s.Input)
		if math.Abs(out[0]-s.Target[0]) > 0.25 {
			t.Errorf("XOR(%v) = %v, want %v", s.Input, out[0], s.Target[0])
		}
	}
}

func TestLossEmptyIsZero(t *testing.T) {
	n, _ := New(Config{LayerSizes: []int{1, 2, 1}})
	loss, err := n.Loss(nil)
	if err != nil || loss != 0 {
		t.Errorf("Loss(nil) = %v, %v", loss, err)
	}
}

func TestCloneIndependence(t *testing.T) {
	n, _ := New(Config{LayerSizes: []int{2, 4, 1}, Seed: 9})
	c := n.Clone()
	outN, _ := n.Forward([]float64{0.5, 0.5})
	want := append([]float64(nil), outN...)
	// Train the clone; the original must not move.
	for i := 0; i < 50; i++ {
		if _, err := c.TrainSample([]float64{0.5, 0.5}, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	outN2, _ := n.Forward([]float64{0.5, 0.5})
	if !reflect.DeepEqual(want, append([]float64(nil), outN2...)) {
		t.Error("training a clone mutated the original")
	}
	outC, _ := c.Forward([]float64{0.5, 0.5})
	if reflect.DeepEqual(want, append([]float64(nil), outC...)) {
		t.Error("clone did not train")
	}
}

// Property: Forward always emits values strictly inside (0, 1) for finite
// inputs — sigmoid saturation must not overflow to exactly 0/1 NaNs.
func TestQuickForwardBounded(t *testing.T) {
	n, err := New(Config{LayerSizes: []int{3, 6, 2}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c float64) bool {
		in := []float64{clamp01(a), clamp01(b), clamp01(c)}
		out, err := n.Forward(in)
		if err != nil {
			return false
		}
		for _, g := range out {
			if math.IsNaN(g) || g < 0 || g > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp01(x float64) float64 {
	x = math.Abs(math.Mod(x, 1))
	if math.IsNaN(x) {
		return 0.5
	}
	return x
}

func TestSigmoidPrimeMatchesDerivative(t *testing.T) {
	for _, x := range []float64{-3, -1, 0, 0.5, 2} {
		g := sigmoid(x)
		h := 1e-6
		numeric := (sigmoid(x+h) - sigmoid(x-h)) / (2 * h)
		if math.Abs(sigmoidPrime(g)-numeric) > 1e-6 {
			t.Errorf("sigmoidPrime at %v: got %v, numeric %v", x, sigmoidPrime(g), numeric)
		}
	}
}

func BenchmarkForwardTableII(b *testing.B) {
	// Table II topology: 4 layers, 50 units per hidden layer, Δ=12 inputs.
	n, err := New(Config{LayerSizes: []int{12, 50, 50, 1}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	in := make([]float64, 12)
	for i := range in {
		in[i] = float64(i) / 12
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Forward(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainSampleTableII(b *testing.B) {
	n, err := New(Config{LayerSizes: []int{12, 50, 50, 1}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	in := make([]float64, 12)
	for i := range in {
		in[i] = float64(i) / 12
	}
	target := []float64{0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.TrainSample(in, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainBatchTableII measures the batched kernel at the CORP
// online shape: 1 new sample + 5 replays per call.
func BenchmarkTrainBatchTableII(b *testing.B) {
	n, err := New(Config{LayerSizes: []int{12, 50, 50, 1}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 6
	ins := make([]float64, batch*12)
	tgts := make([]float64, batch)
	for i := range ins {
		ins[i] = float64(i%12) / 12
	}
	for i := range tgts {
		tgts[i] = 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.TrainBatch(ins, tgts); err != nil {
			b.Fatal(err)
		}
	}
}
