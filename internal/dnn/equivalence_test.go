package dnn

import (
	"math"
	"math/rand"
	"testing"
)

// The flat blocked/fused kernels are required to reproduce the original
// jagged implementation bit-for-bit (the repo's figures are pinned to
// fixed seeds). jaggedNet reconstructs that seed implementation — nested
// [][]float64 weight rows, plain nested loops, two-pass backward — so the
// equivalence tests compare the production network against the exact
// numerics the repo shipped with.

type jaggedNet struct {
	sizes   []int
	rate    float64
	weights [][][]float64
	biases  [][]float64
	acts    [][]float64
	deltas  [][]float64
}

func newJagged(sizes []int, rate float64, seed int64) *jaggedNet {
	rng := rand.New(rand.NewSource(seed))
	n := &jaggedNet{sizes: sizes, rate: rate}
	n.weights = make([][][]float64, len(sizes)-1)
	n.biases = make([][]float64, len(sizes)-1)
	for d := 0; d < len(sizes)-1; d++ {
		in, out := sizes[d], sizes[d+1]
		scale := math.Sqrt(6.0 / float64(in+out))
		rows := make([][]float64, out)
		for i := range rows {
			rows[i] = make([]float64, in)
			for j := range rows[i] {
				rows[i][j] = (2*rng.Float64() - 1) * scale
			}
		}
		n.weights[d] = rows
		n.biases[d] = make([]float64, out)
	}
	n.acts = make([][]float64, len(sizes))
	n.deltas = make([][]float64, len(sizes))
	for d, s := range sizes {
		n.acts[d] = make([]float64, s)
		n.deltas[d] = make([]float64, s)
	}
	return n
}

func (n *jaggedNet) forward(input []float64) []float64 {
	copy(n.acts[0], input)
	for d := 0; d < len(n.weights); d++ {
		prev := n.acts[d]
		cur := n.acts[d+1]
		for i := range cur {
			wi := n.weights[d][i]
			sum := n.biases[d][i]
			for j, g := range prev {
				sum += wi[j] * g
			}
			cur[i] = sigmoid(sum)
		}
	}
	return n.acts[len(n.acts)-1]
}

func (n *jaggedNet) trainSample(input, target []float64) float64 {
	out := n.forward(input)
	last := len(n.sizes) - 1
	var loss float64
	for i, g := range out {
		diff := target[i] - g
		loss += 0.5 * diff * diff
		n.deltas[last][i] = diff * sigmoidPrime(g)
	}
	for d := last - 1; d >= 1; d-- {
		w := n.weights[d]
		for i := range n.deltas[d] {
			var sum float64
			for j := range n.deltas[d+1] {
				sum += n.deltas[d+1][j] * w[j][i]
			}
			n.deltas[d][i] = sum * sigmoidPrime(n.acts[d][i])
		}
	}
	for d := 0; d < len(n.weights); d++ {
		prev := n.acts[d]
		delta := n.deltas[d+1]
		for i := range n.weights[d] {
			wi := n.weights[d][i]
			step := n.rate * delta[i]
			for j, g := range prev {
				wi[j] += step * g
			}
			n.biases[d][i] += step
		}
	}
	return loss
}

// tableIIShape is the paper's predictor topology {Δ, 50, 50, 1}.
var tableIIShape = []int{12, 50, 50, 1}

// TestFlatMatchesJaggedTableII trains the flat production network and the
// jagged reference side by side for 1000 SGD steps on the Table II shape
// and demands ≤1e-12 divergence in losses, outputs, and every parameter.
// (The kernels are designed to be exactly bit-identical; the 1e-12 bound
// is the acceptance criterion's slack.)
func TestFlatMatchesJaggedTableII(t *testing.T) { eachTier(t, testFlatMatchesJaggedTableII) }

func testFlatMatchesJaggedTableII(t *testing.T) {
	const seed = 42
	flat, err := New(Config{LayerSizes: tableIIShape, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	jag := newJagged(tableIIShape, 0.5, seed)

	rng := rand.New(rand.NewSource(7))
	in := make([]float64, tableIIShape[0])
	target := make([]float64, 1)
	for step := 0; step < 1000; step++ {
		for i := range in {
			in[i] = rng.Float64()
		}
		target[0] = rng.Float64()
		lf, err := flat.TrainSample(in, target)
		if err != nil {
			t.Fatal(err)
		}
		lj := jag.trainSample(in, target)
		if math.Abs(lf-lj) > 1e-12 {
			t.Fatalf("step %d: loss diverged: flat %v, jagged %v", step, lf, lj)
		}
	}

	// Forward outputs after training.
	for trial := 0; trial < 10; trial++ {
		for i := range in {
			in[i] = rng.Float64()
		}
		of, err := flat.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		oj := jag.forward(in)
		for i := range of {
			if math.Abs(of[i]-oj[i]) > 1e-12 {
				t.Fatalf("forward diverged: flat %v, jagged %v", of[i], oj[i])
			}
		}
	}

	// Every weight and bias.
	for d := range flat.weights {
		in := flat.sizes[d]
		for i, row := range jag.weights[d] {
			for j, want := range row {
				if got := flat.weights[d][i*in+j]; math.Abs(got-want) > 1e-12 {
					t.Fatalf("weight [%d][%d][%d] diverged: flat %v, jagged %v", d, i, j, got, want)
				}
			}
		}
		for i, want := range jag.biases[d] {
			if got := flat.biases[d][i]; math.Abs(got-want) > 1e-12 {
				t.Fatalf("bias [%d][%d] diverged: flat %v, jagged %v", d, i, got, want)
			}
		}
	}
}

// TestFlatMatchesJaggedOddShapes covers layer widths that exercise the
// blocked kernels' 8/4/scalar remainder paths (and a widest-layer-first
// topology for the shared tmp buffer).
func TestFlatMatchesJaggedOddShapes(t *testing.T) { eachTier(t, testFlatMatchesJaggedOddShapes) }

func testFlatMatchesJaggedOddShapes(t *testing.T) {
	shapes := [][]int{
		{3, 5, 2},     // all-scalar remainders
		{7, 13, 9, 4}, // 8+4+scalar mixes
		{12, 50, 3},   // wide then narrow
		{5, 17, 1},
	}
	for _, shape := range shapes {
		flat, err := New(Config{LayerSizes: shape, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		jag := newJagged(shape, 0.5, 9)
		rng := rand.New(rand.NewSource(11))
		in := make([]float64, shape[0])
		target := make([]float64, shape[len(shape)-1])
		for step := 0; step < 200; step++ {
			for i := range in {
				in[i] = rng.Float64()
			}
			for i := range target {
				target[i] = rng.Float64()
			}
			lf, err := flat.TrainSample(in, target)
			if err != nil {
				t.Fatal(err)
			}
			if lj := jag.trainSample(in, target); math.Abs(lf-lj) > 1e-12 {
				t.Fatalf("shape %v step %d: loss diverged: flat %v, jagged %v", shape, step, lf, lj)
			}
		}
	}
}

// TestTrainBatchMatchesSequentialTrainSample pins the batched kernel to
// per-sample semantics: same order, same numerics, summed loss.
func TestTrainBatchMatchesSequentialTrainSample(t *testing.T) {
	eachTier(t, testTrainBatchMatchesSequentialTrainSample)
}

func testTrainBatchMatchesSequentialTrainSample(t *testing.T) {
	a, err := New(Config{LayerSizes: tableIIShape, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	rng := rand.New(rand.NewSource(5))
	const batch = 6
	inSize := tableIIShape[0]
	ins := make([]float64, batch*inSize)
	tgts := make([]float64, batch)
	for i := range ins {
		ins[i] = rng.Float64()
	}
	for i := range tgts {
		tgts[i] = rng.Float64()
	}

	var wantLoss float64
	for s := 0; s < batch; s++ {
		loss, err := a.TrainSample(ins[s*inSize:(s+1)*inSize], tgts[s:s+1])
		if err != nil {
			t.Fatal(err)
		}
		wantLoss += loss
	}
	gotLoss, err := b.TrainBatch(ins, tgts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotLoss-wantLoss) > 1e-12 {
		t.Fatalf("batch loss %v, sequential %v", gotLoss, wantLoss)
	}
	for i := range a.wslab {
		if a.wslab[i] != b.wslab[i] {
			t.Fatalf("weights diverge at slab index %d", i)
		}
	}
	for i := range a.bslab {
		if a.bslab[i] != b.bslab[i] {
			t.Fatalf("biases diverge at slab index %d", i)
		}
	}
}

// TestTrainBatchValidation covers the malformed-batch error paths.
func TestTrainBatchValidation(t *testing.T) {
	n, _ := New(Config{LayerSizes: []int{4, 3, 2}, Seed: 1})
	cases := []struct {
		name     string
		ins, tgt []float64
	}{
		{"empty", nil, nil},
		{"ragged inputs", make([]float64, 7), make([]float64, 2)},
		{"target mismatch", make([]float64, 8), make([]float64, 3)},
	}
	for _, c := range cases {
		if _, err := n.TrainBatch(c.ins, c.tgt); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestCloneDeterminism: a clone must train exactly like its source.
func TestCloneDeterminism(t *testing.T) { eachTier(t, testCloneDeterminism) }

func testCloneDeterminism(t *testing.T) {
	a, err := New(Config{LayerSizes: tableIIShape, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	rng := rand.New(rand.NewSource(19))
	in := make([]float64, tableIIShape[0])
	for step := 0; step < 100; step++ {
		for i := range in {
			in[i] = rng.Float64()
		}
		target := []float64{rng.Float64()}
		la, err := a.TrainSample(in, target)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := b.TrainSample(in, target)
		if err != nil {
			t.Fatal(err)
		}
		if la != lb {
			t.Fatalf("step %d: clone diverged: %v vs %v", step, la, lb)
		}
	}
	for i := range a.wslab {
		if a.wslab[i] != b.wslab[i] {
			t.Fatalf("clone weights diverge at %d", i)
		}
	}
}

// TestForwardReturnIsNetworkOwned documents the aliasing contract: the
// slice Forward returns is overwritten by the next call, so callers must
// copy before re-entering the network.
func TestForwardReturnIsNetworkOwned(t *testing.T) {
	n, _ := New(Config{LayerSizes: []int{2, 4, 2}, Seed: 1})
	out1, err := n.Forward([]float64{0.1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), out1...)
	out2, err := n.Forward([]float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if &out1[0] != &out2[0] {
		t.Fatal("Forward no longer returns the network-owned buffer; update the docs and this test")
	}
	same := true
	for i := range out1 {
		if out1[i] != snapshot[i] {
			same = false
		}
	}
	if same {
		t.Fatal("second Forward left the first call's values intact; aliasing contract test is vacuous")
	}
}

// TestHotKernelsDoNotAllocate asserts the acceptance criterion directly:
// Forward, TrainSample, and TrainBatch are allocation-free.
func TestHotKernelsDoNotAllocate(t *testing.T) { eachTier(t, testHotKernelsDoNotAllocate) }

func testHotKernelsDoNotAllocate(t *testing.T) {
	n, _ := New(Config{LayerSizes: tableIIShape, Seed: 1})
	in := make([]float64, tableIIShape[0])
	for i := range in {
		in[i] = float64(i) / 12
	}
	target := []float64{0.5}
	const batch = 6
	ins := make([]float64, batch*len(in))
	tgts := make([]float64, batch)

	if avg := testing.AllocsPerRun(100, func() {
		if _, err := n.Forward(in); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Forward allocates %.1f/op", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := n.TrainSample(in, target); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("TrainSample allocates %.1f/op", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := n.TrainBatch(ins, tgts); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("TrainBatch allocates %.1f/op", avg)
	}
}
