package dnn

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestForwardBatchMatchesPerSample pins the batched kernel exactly equal
// (==, not approximately) to per-sample Forward across randomized
// topologies and batch sizes 1..N, including sizes that leave a ragged
// final 4-row block and odd output widths that exercise the 1-neuron
// remainder column.
func TestForwardBatchMatchesPerSample(t *testing.T) { eachTier(t, testForwardBatchMatchesPerSample) }

func testForwardBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][]int{
		{12, 50, 50, 1}, // Table II
		{1, 1},          // degenerate minimum
		{3, 7, 2},       // odd widths: 1-neuron remainder
		{5, 16, 16, 16}, // multiple of 8 widths
		{9, 31, 13, 4},  // prime-ish widths
		{2, 50, 50, 50, 3},
	}
	for _, sizes := range shapes {
		net, err := New(Config{LayerSizes: sizes, Seed: rng.Int63()})
		if err != nil {
			t.Fatalf("New(%v): %v", sizes, err)
		}
		inSize, outSize := sizes[0], sizes[len(sizes)-1]
		const maxRows = 9 // covers 4-row blocks plus every ragged remainder
		scratch := net.NewBatchScratch(maxRows)
		inputs := make([]float64, maxRows*inSize)
		for rows := 1; rows <= maxRows; rows++ {
			for i := range inputs[:rows*inSize] {
				inputs[i] = rng.Float64()
			}
			got, err := net.ForwardBatchInto(scratch, inputs[:rows*inSize])
			if err != nil {
				t.Fatalf("ForwardBatchInto(%v, rows=%d): %v", sizes, rows, err)
			}
			if len(got) != rows*outSize {
				t.Fatalf("shape %v rows %d: got %d outputs, want %d", sizes, rows, len(got), rows*outSize)
			}
			for r := 0; r < rows; r++ {
				want, err := net.Forward(inputs[r*inSize : (r+1)*inSize])
				if err != nil {
					t.Fatalf("Forward: %v", err)
				}
				for i, w := range want {
					if g := got[r*outSize+i]; g != w {
						t.Fatalf("shape %v rows %d row %d out %d: batch %v != per-sample %v",
							sizes, rows, r, i, g, w)
					}
				}
			}
		}
	}
}

// TestForwardBatchErrors covers the validation paths.
func TestForwardBatchErrors(t *testing.T) {
	net, err := New(Config{LayerSizes: []int{4, 3, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	scratch := net.NewBatchScratch(2)
	if _, err := net.ForwardBatchInto(scratch, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := net.ForwardBatchInto(scratch, make([]float64, 6)); err == nil {
		t.Fatal("non-multiple batch length accepted")
	}
	if _, err := net.ForwardBatchInto(scratch, make([]float64, 3*4)); err == nil {
		t.Fatal("batch beyond scratch capacity accepted")
	}
	other, err := New(Config{LayerSizes: []int{4, 5, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ForwardBatchInto(scratch, make([]float64, 2*4)); err == nil {
		t.Fatal("topology-mismatched scratch accepted")
	}
}

// TestForwardBatchIntoAllocs pins the batched forward allocation-free.
func TestForwardBatchIntoAllocs(t *testing.T) { eachTier(t, testForwardBatchIntoAllocs) }

func testForwardBatchIntoAllocs(t *testing.T) {
	net, err := New(Config{LayerSizes: []int{12, 50, 50, 1}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	scratch := net.NewBatchScratch(64)
	inputs := make([]float64, 64*12)
	for i := range inputs {
		inputs[i] = float64(i%12) / 12
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := net.ForwardBatchInto(scratch, inputs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ForwardBatchInto allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkForwardBatchTableII compares the batched forward against the
// equivalent per-sample loop at the paper's topology.
func BenchmarkForwardBatchTableII(b *testing.B) {
	net, err := New(Config{LayerSizes: []int{12, 50, 50, 1}, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{16, 64, 256} {
		inputs := make([]float64, rows*12)
		rng := rand.New(rand.NewSource(13))
		for i := range inputs {
			inputs[i] = rng.Float64()
		}
		b.Run(fmt.Sprintf("batch-%d", rows), func(b *testing.B) {
			scratch := net.NewBatchScratch(rows)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := net.ForwardBatchInto(scratch, inputs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
		b.Run(fmt.Sprintf("persample-%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					if _, err := net.Forward(inputs[r*12 : (r+1)*12]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
