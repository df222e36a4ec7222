package dnn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
)

// The AVX2 and plain-Go tiers of the layer primitives must agree to the
// bit, so the oracle needs no golden file: run the same calls on two
// identically seeded networks, one per tier, and demand == everywhere.

// setTier forces one tier for the rest of the test.
func setTier(t testing.TB, avx2 bool) {
	old := useAVX2
	useAVX2 = avx2
	t.Cleanup(func() { useAVX2 = old })
}

// eachTier runs f once per tier this machine can execute, as subtests.
func eachTier(t *testing.T, f func(t *testing.T)) {
	for _, avx2 := range []bool{true, false} {
		if avx2 && !cpufeat.HasAVX2 {
			continue
		}
		name := "generic"
		if avx2 {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			setTier(t, avx2)
			f(t)
		})
	}
}

// tierPair holds two identically initialized networks; each step runs on a
// with the AVX2 tier and on b with the plain-Go tier.
type tierPair struct {
	a, b   *Network
	sa, sb *BatchScratch
}

const tierBatchRows = 5

func newTierPair(t testing.TB, sizes []int, seed int64) *tierPair {
	a, err := New(Config{LayerSizes: sizes, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	return &tierPair{a: a, b: b, sa: a.NewBatchScratch(tierBatchRows), sb: b.NewBatchScratch(tierBatchRows)}
}

// step performs one call chosen by op on both networks and compares the
// returned loss/outputs. data holds tierBatchRows input rows followed by
// tierBatchRows target rows.
func (p *tierPair) step(t testing.TB, op int, data []float64) {
	inSize := p.a.sizes[0]
	outSize := p.a.sizes[len(p.a.sizes)-1]
	ins := data[:tierBatchRows*inSize]
	tgts := data[tierBatchRows*inSize:]
	run := func(n *Network, s *BatchScratch) (float64, []float64) {
		var loss float64
		var out []float64
		var err error
		switch op % 4 {
		case 0:
			loss, err = n.TrainSample(ins[:inSize], tgts[:outSize])
		case 1:
			loss, err = n.TrainBatch(ins, tgts)
		case 2:
			out, err = n.Forward(ins[:inSize])
		case 3:
			out, err = n.ForwardBatchInto(s, ins)
		}
		if err != nil {
			t.Fatal(err)
		}
		return loss, out
	}
	useAVX2 = true
	la, oa := run(p.a, p.sa)
	useAVX2 = false
	lb, ob := run(p.b, p.sb)
	if la != lb {
		t.Fatalf("shape %v op %d: loss avx2 %v, generic %v", p.a.sizes, op%4, la, lb)
	}
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatalf("shape %v op %d: output[%d] avx2 %v, generic %v", p.a.sizes, op%4, i, oa[i], ob[i])
		}
	}
}

// compareState demands identical parameters and scratch activations.
func (p *tierPair) compareState(t testing.TB) {
	for i := range p.a.wslab {
		if p.a.wslab[i] != p.b.wslab[i] {
			t.Fatalf("shape %v: weight slab[%d] avx2 %v, generic %v", p.a.sizes, i, p.a.wslab[i], p.b.wslab[i])
		}
	}
	for i := range p.a.bslab {
		if p.a.bslab[i] != p.b.bslab[i] {
			t.Fatalf("shape %v: bias slab[%d] avx2 %v, generic %v", p.a.sizes, i, p.a.bslab[i], p.b.bslab[i])
		}
	}
	for d := range p.a.acts {
		for i := range p.a.acts[d] {
			if p.a.acts[d][i] != p.b.acts[d][i] {
				t.Fatalf("shape %v: activation [%d][%d] avx2 %v, generic %v", p.a.sizes, d, i, p.a.acts[d][i], p.b.acts[d][i])
			}
		}
	}
}

// needBothTiers skips on a machine without AVX2 and restores the tier
// selection (which step flips) when the test ends.
func needBothTiers(t testing.TB) {
	if !cpufeat.HasAVX2 {
		t.Skip("no AVX2: only the plain-Go tier exists on this machine")
	}
	setTier(t, useAVX2)
}

// TestKernelTiersAgree drives random topologies with every width in 1…67,
// so every fan-in % 4 and fan-out % 4 remainder occurs, as do fan-in < 4,
// fan-out < 4 (the plain loop behind the forward kernel's out >= 4 gate),
// fan-out 5…7 (an overlapped last block with no 16-row group before it)
// and the Table II 50→1 output layer.
func TestKernelTiersAgree(t *testing.T) {
	needBothTiers(t)
	rng := rand.New(rand.NewSource(12))
	shapes := [][]int{tableIIShape, {1, 1}, {3, 2, 1}, {2, 5, 3}, {4, 4, 4}, {67, 67, 67}}
	for len(shapes) < 120 {
		shape := make([]int, 2+rng.Intn(3))
		for i := range shape {
			shape[i] = 1 + rng.Intn(67)
		}
		shapes = append(shapes, shape)
	}
	covered := map[string]bool{}
	for _, shape := range shapes {
		for d := 0; d+1 < len(shape); d++ {
			in, out := shape[d], shape[d+1]
			covered[fmt.Sprintf("in%%4=%d", in%4)] = true
			covered[fmt.Sprintf("out%%4=%d", out%4)] = true
			if in < 4 {
				covered["in<4"] = true
			}
			if out < 4 {
				covered["out<4"] = true
			}
			if out > 4 && out < 8 {
				covered["4<out<8"] = true
			}
		}
		p := newTierPair(t, shape, rng.Int63())
		data := make([]float64, tierBatchRows*(shape[0]+shape[len(shape)-1]))
		for s := 0; s < 24; s++ {
			for i := range data {
				data[i] = rng.Float64()
			}
			p.step(t, rng.Intn(4), data)
		}
		p.compareState(t)
	}
	if len(covered) != 11 {
		t.Errorf("layer-width classes covered: %v, want all 11", covered)
	}
}

// FuzzDNNKernels lets the fuzzer pick the topology, the weight seed and the
// sample bytes (each byte is one input or target value in [0,1]; byte i%4
// of a round also picks the call). Any divergence between the tiers is a
// figure-level divergence, so they must agree exactly.
func FuzzDNNKernels(f *testing.F) {
	f.Add([]byte{12, 50, 50, 1}, int64(1), []byte("table II: the paper's predictor"))
	f.Add([]byte{1, 1}, int64(2), []byte{0, 255, 7})
	f.Add([]byte{3, 66, 2}, int64(3), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{67, 5, 7, 6}, int64(4), []byte{200, 100, 50, 25})
	f.Fuzz(func(t *testing.T, shapeBytes []byte, seed int64, sample []byte) {
		needBothTiers(t)
		if len(shapeBytes) < 2 || len(shapeBytes) > 5 || len(sample) == 0 {
			t.Skip()
		}
		shape := make([]int, len(shapeBytes))
		for i, b := range shapeBytes {
			shape[i] = 1 + (int(b)+66)%67 // byte n → width n for 1…67
		}
		p := newTierPair(t, shape, seed)
		data := make([]float64, tierBatchRows*(shape[0]+shape[len(shape)-1]))
		pos := 0
		for round := 0; round < 8; round++ {
			for i := range data {
				data[i] = float64(sample[pos%len(sample)]) / 255
				pos++
			}
			p.step(t, int(sample[round%len(sample)]), data)
		}
		p.compareState(t)
	})
}
