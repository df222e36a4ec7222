package dnn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The AVX2 and plain-Go tiers of the layer primitives must agree to the
// bit, so the oracle needs no golden file: run the same calls on two
// identically seeded networks, one per tier, and demand == everywhere.

// hasAVX2Tier reports whether this machine can run the assembly tier: the
// selection as made at init, before any test flips it.
var hasAVX2Tier = useAVX2

// setTier forces one tier for the rest of the test.
func setTier(t testing.TB, avx2 bool) {
	old := useAVX2
	useAVX2 = avx2
	t.Cleanup(func() { useAVX2 = old })
}

// eachTier runs f once per tier this machine can execute, as subtests.
func eachTier(t *testing.T, f func(t *testing.T)) {
	for _, avx2 := range []bool{true, false} {
		if avx2 && !hasAVX2Tier {
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

// needBothTiers skips on a machine without AVX2 and FMA and restores the
// tier selection (which step flips) when the test ends.
func needBothTiers(t testing.TB) {
	if !hasAVX2Tier {
		t.Skip("no AVX2+FMA: only the plain-Go tier exists on this machine")
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

// sigmoidTiersAgree runs forwardLayer over xs as a bare sigmoid on both
// tiers and demands the same bit patterns. Fan-in 1, prev = {1} and a bias
// of -0 make every pre-activation -0 + x·1, which is x to the bit: the sign
// of a zero survives, and so does a NaN's payload.
func sigmoidTiersAgree(t testing.TB, xs []float64) {
	bias := negZeros(len(xs))
	run := func(avx2 bool, fill float64) []float64 {
		out := make([]float64, len(xs))
		for i := range out {
			out[i] = fill // no sigmoid is 2 or 3: a lane nobody wrote shows
		}
		useAVX2 = avx2
		forwardLayer(xs, bias, []float64{1}, out)
		return out
	}
	simd, plain := run(true, 2), run(false, 3)
	for i, x := range xs {
		if math.Float64bits(simd[i]) != math.Float64bits(plain[i]) {
			t.Fatalf("width %d: sigmoid(%v [%#x]) at [%d]: avx2 %v [%#x], generic %v [%#x]", len(xs), x, math.Float64bits(x), i,
				simd[i], math.Float64bits(simd[i]), plain[i], math.Float64bits(plain[i]))
		}
	}
}

func negZeros(n int) []float64 {
	zs := make([]float64, n)
	for i := range zs {
		zs[i] = math.Copysign(0, -1)
	}
	return zs
}

// sigmoidSpecials are the arguments around every branch of the sigmoid's
// exponential and of the kernel's |x| <= 700 gate. (exp sees -x.)
var sigmoidSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -1,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff4000000000002),
	700, -700, math.Nextafter(700, 800), math.Nextafter(-700, -800), 699.9999, -699.9999,
	708.4, -708.4, 709.436, -709.436, 709.437, -709.437,
	709.782712893384, -709.782712893384, math.Nextafter(709.782712893384, 800), math.Nextafter(-709.782712893384, -800),
	745.1332191019411, 745.1332191019412, -745.1332191019412, 800, -800, 1e300, -1e300,
}

// TestSigmoidTiersAgree feeds the fused sigmoid every width in 1…67 — the
// plain loop behind out < 4, whole 16-row groups, 4-row blocks and the
// overlapped last block — with inputs that stay inside the in-register
// chain (N(0, 3), rounding ties (n+½)·ln 2 up to |x| = 700), that leave it
// in most groups (±800 uniform, raw bit patterns) and that leave it in
// exactly one lane (a special dropped into an N(0, 3) row, so the kernel
// stops at every group position and the loop finishes the row).
func TestSigmoidTiersAgree(t *testing.T) {
	needBothTiers(t)
	rng := rand.New(rand.NewSource(13))
	for width := 1; width <= 67; width++ {
		xs := make([]float64, width)
		fill := func(f func() float64) {
			for i := range xs {
				xs[i] = f()
			}
		}
		normal := func() float64 { return 3 * rng.NormFloat64() }
		tie := func() float64 { return (float64(rng.Intn(2019)-1010) + 0.5) * math.Ln2 }
		for round := 0; round < 40; round++ {
			fill(normal)
			sigmoidTiersAgree(t, xs)
			fill(tie)
			sigmoidTiersAgree(t, xs)
			fill(func() float64 { return (2*rng.Float64() - 1) * 800 })
			sigmoidTiersAgree(t, xs)
			fill(func() float64 { return math.Float64frombits(rng.Uint64()) })
			sigmoidTiersAgree(t, xs)
			fill(func() float64 { return sigmoidSpecials[rng.Intn(len(sigmoidSpecials))] })
			sigmoidTiersAgree(t, xs)
		}
		for _, x := range sigmoidSpecials {
			fill(normal)
			xs[rng.Intn(width)] = x
			sigmoidTiersAgree(t, xs)
		}
	}
}

// FuzzSigmoidKernel lets the fuzzer pick the width and the arguments: each
// eight bytes of data are one argument, a raw bit pattern if spread is
// false and an int64 scaled onto ±800 otherwise (the band where the
// in-register chain and its gate both matter).
func FuzzSigmoidKernel(f *testing.F) {
	le := binary.LittleEndian
	specials := make([]byte, 0, 8*len(sigmoidSpecials))
	for _, x := range sigmoidSpecials {
		specials = le.AppendUint64(specials, math.Float64bits(x))
	}
	f.Add(uint8(50), false, specials)
	f.Add(uint8(67), true, []byte("table II has fifty sigmoids in a hidden layer"))
	f.Add(uint8(7), true, []byte{0, 0, 0, 0, 0, 0, 0, 0x70, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(3), false, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Fuzz(func(t *testing.T, widthByte uint8, spread bool, data []byte) {
		needBothTiers(t)
		if len(data) < 8 {
			t.Skip()
		}
		xs := make([]float64, 1+int(widthByte)%67)
		for i := range xs {
			u := le.Uint64(data[8*(i%(len(data)/8)):])
			if spread {
				xs[i] = float64(int64(u)) / (1 << 63) * 800
			} else {
				xs[i] = math.Float64frombits(u)
			}
		}
		sigmoidTiersAgree(t, xs)
	})
}

// BenchmarkSigmoidTableII times forwardLayer as a bare 50-wide sigmoid (see
// sigmoidTiersAgree) on each tier this machine has.
func BenchmarkSigmoidTableII(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 50)
	bias := negZeros(len(xs))
	for i := range xs {
		xs[i] = 3 * rng.NormFloat64()
	}
	out := make([]float64, len(xs))
	for _, tier := range []string{"avx2", "generic"} {
		if tier == "avx2" && !hasAVX2Tier {
			continue
		}
		b.Run(tier, func(b *testing.B) {
			setTier(b, tier == "avx2")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				forwardLayer(xs, bias, []float64{1}, out)
			}
		})
	}
}
