package dnn

import (
	"math"
	"reflect"
	"testing"
)

func sineSamples(n int) []Sample {
	var samples []Sample
	for i := 0; i < n; i++ {
		x := float64((i*37)%n) / float64(n)
		samples = append(samples, Sample{
			Input:  []float64{x},
			Target: []float64{0.5 + 0.3*math.Sin(2*math.Pi*x)},
		})
	}
	return samples
}

func TestTrainParallelConverges(t *testing.T) {
	n, err := New(Config{LayerSizes: []int{1, 16, 16, 1}, LearningRate: 1.0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.TrainParallel(sineSamples(200), ParallelOptions{
		TrainOptions: TrainOptions{MaxEpochs: 300, Seed: 4},
		Workers:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ValidationLoss > 0.01 {
		t.Errorf("parallel validation loss %v after %d epochs", res.ValidationLoss, res.Epochs)
	}
}

func TestTrainParallelDeterministic(t *testing.T) {
	run := func() []float64 {
		n, err := New(Config{LayerSizes: []int{1, 8, 1}, LearningRate: 1.0, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.TrainParallel(sineSamples(60), ParallelOptions{
			TrainOptions: TrainOptions{MaxEpochs: 20, Seed: 9},
			Workers:      3,
		}); err != nil {
			t.Fatal(err)
		}
		out, _ := n.Forward([]float64{0.3})
		return append([]float64(nil), out...)
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("parallel training must be deterministic for fixed seed and workers")
	}
}

func TestTrainParallelSingleWorker(t *testing.T) {
	n, err := New(Config{LayerSizes: []int{1, 8, 1}, LearningRate: 1.0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.TrainParallel(sineSamples(80), ParallelOptions{
		TrainOptions: TrainOptions{MaxEpochs: 100, Seed: 2},
		Workers:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ValidationLoss > 0.02 {
		t.Errorf("single-worker loss %v", res.ValidationLoss)
	}
}

func TestTrainParallelEmpty(t *testing.T) {
	n, _ := New(Config{LayerSizes: []int{1, 2, 1}})
	if _, err := n.TrainParallel(nil, ParallelOptions{}); err == nil {
		t.Error("empty training set should fail")
	}
}

func TestTrainParallelMoreWorkersThanSamples(t *testing.T) {
	n, _ := New(Config{LayerSizes: []int{1, 2, 1}, Seed: 1})
	_, err := n.TrainParallel(sineSamples(6), ParallelOptions{
		TrainOptions: TrainOptions{MaxEpochs: 3, Seed: 1},
		Workers:      32,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAverageFrom(t *testing.T) {
	a, _ := New(Config{LayerSizes: []int{2, 2, 1}, Seed: 1})
	b := a.Clone()
	c := a.Clone()
	// Shift b's first weight by +2 and c's by −2: the average must land
	// back on a's value.
	orig := a.weights[0][0]
	b.weights[0][0] = orig + 2
	c.weights[0][0] = orig - 2
	a.averageFrom([]*Network{b, c})
	if math.Abs(a.weights[0][0]-orig) > 1e-12 {
		t.Errorf("average = %v, want %v", a.weights[0][0], orig)
	}
	// Averaging from nothing is a no-op.
	a.averageFrom(nil)
	if math.Abs(a.weights[0][0]-orig) > 1e-12 {
		t.Error("empty average mutated the network")
	}
}

func BenchmarkTrainEpochParallel4(b *testing.B) {
	samples := sineSamples(512)
	n, err := New(Config{LayerSizes: []int{1, 50, 50, 1}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.TrainParallel(samples, ParallelOptions{
			TrainOptions: TrainOptions{MaxEpochs: 1, Patience: 100, Seed: int64(i)},
			Workers:      4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
